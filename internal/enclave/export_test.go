package enclave

// NewWithFlatFreshness is New with the flat freshness table
// (flat_freshness_test.go) in place of the Merkle root: the oracle the
// Merkle path is compared against.
func NewWithFlatFreshness(cfg Config) (*Enclave, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.fresh = &flatFreshness{e: e}
	return e, nil
}
