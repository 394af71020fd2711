package cas

import (
	"bytes"
	"fmt"
	"sort"

	"nexus/internal/serial"
)

// RefTable is the volume's chunk reference-count table: how many
// filenode extents reference each live chunk. It is sealed as one
// metadata object ("cas-refs") and reloaded/merged under the store
// lock on every flush, like the freshness root commit; a
// chunk whose count reaches zero is garbage and its object is deleted
// after the table commits. The table is the GC ground truth, so its
// encoding is strictly canonical: handles sorted, counts positive.
type RefTable struct {
	refs map[Handle]uint32
}

// refTableFormat versions the wire encoding.
const refTableFormat = 1

// NewRefTable returns an empty table.
func NewRefTable() *RefTable {
	return &RefTable{refs: make(map[Handle]uint32)}
}

// Len returns the number of live chunks.
func (t *RefTable) Len() int { return len(t.refs) }

// Get returns h's reference count (zero when untracked).
func (t *RefTable) Get(h Handle) uint32 { return t.refs[h] }

// Inc adds n references to h.
func (t *RefTable) Inc(h Handle, n uint32) {
	if n == 0 {
		return
	}
	t.refs[h] += n
}

// Dec removes n references from h and reports the remaining count.
// Decrements saturate at zero: after a crash between a table flush and
// a filenode flush the table may undercount by design (leak-not-lose,
// DESIGN.md §16), so a saturated decrement is survivable bookkeeping
// drift, not corruption. A zeroed handle is removed from the table;
// the caller owns deleting its object.
func (t *RefTable) Dec(h Handle, n uint32) (remaining uint32, zeroed bool) {
	cur, ok := t.refs[h]
	if !ok {
		return 0, false
	}
	if n >= cur {
		delete(t.refs, h)
		return 0, true
	}
	t.refs[h] = cur - n
	return cur - n, false
}

// Handles returns the tracked handles in canonical (ascending) order.
func (t *RefTable) Handles() []Handle {
	out := make([]Handle, 0, len(t.refs))
	for h := range t.refs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// Clone deep-copies the table.
func (t *RefTable) Clone() *RefTable {
	c := &RefTable{refs: make(map[Handle]uint32, len(t.refs))}
	for h, n := range t.refs {
		c.refs[h] = n
	}
	return c
}

// Encode returns the canonical encoding:
// format ‖ count ‖ (handle ‖ count)* with handles strictly ascending.
func (t *RefTable) Encode() []byte {
	handles := t.Handles()
	w := serial.NewWriter(1 + 4 + len(handles)*(HandleSize+4))
	w.WriteUint8(refTableFormat)
	w.WriteUint32(uint32(len(handles)))
	for _, h := range handles {
		w.WriteRaw(h[:])
		w.WriteUint32(t.refs[h])
	}
	return w.Bytes()
}

// DecodeRefTable decodes strictly: unknown formats, unsorted or
// duplicate handles, zero counts, and trailing bytes are all rejected,
// so every table has exactly one accepted encoding.
func DecodeRefTable(b []byte) (*RefTable, error) {
	r := serial.NewReader(b)
	format := r.ReadUint8("reftable format")
	if r.Err() == nil && format != refTableFormat {
		return nil, fmt.Errorf("%w: reftable format %d", ErrMalformed, format)
	}
	n := r.ReadCount(0, "reftable count")
	t := &RefTable{refs: make(map[Handle]uint32, n)}
	var prev Handle
	for i := 0; i < n; i++ {
		var h Handle
		r.ReadRawInto(h[:], "reftable handle")
		count := r.ReadUint32("reftable refcount")
		if r.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prev[:], h[:]) >= 0 {
			return nil, fmt.Errorf("%w: reftable handles not strictly ascending at %d", ErrMalformed, i)
		}
		if count == 0 {
			return nil, fmt.Errorf("%w: zero refcount for %s", ErrMalformed, h)
		}
		t.refs[h] = count
		prev = h
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}
