package bench

import (
	"fmt"
	"io"
	"time"
)

// AblationRow measures one design variant's cost on the metadata-heavy
// directory-churn workload (create + delete of n files), the operation
// mix most sensitive to NEXUS's design parameters.
type AblationRow struct {
	Variant string
	Nexus   time.Duration
	// RelativeToBase is this variant's latency over the default
	// configuration's.
	RelativeToBase float64
}

// Ablation quantifies the design choices DESIGN.md calls out: dirnode
// bucket size, the in-enclave metadata cache and the simulated SGX
// transition cost. Each variant runs the same create+delete workload on its own
// freshly built testbed.
func Ablation(base Config, files int) ([]AblationRow, error) {
	if files <= 0 {
		files = 256
	}
	type variant struct {
		name   string
		mutate func(*Config)
	}
	variants := []variant{
		{"default (bucket=128, cache on)", func(*Config) {}},
		{"bucket size 16", func(c *Config) { c.BucketSize = 16 }},
		{"bucket size 512", func(c *Config) { c.BucketSize = 512 }},
		{"metadata cache off", func(c *Config) { c.DisableMetadataCache = true }},
		{"transition cost 0", func(c *Config) { c.TransitionCost = -1 }},
		{"transition cost 50µs", func(c *Config) { c.TransitionCost = 50 * time.Microsecond }},
	}

	rows := make([]AblationRow, 0, len(variants))
	var baseline time.Duration
	for _, v := range variants {
		cfg := base
		v.mutate(&cfg)
		if cfg.TransitionCost < 0 {
			cfg.TransitionCost = 0
			// withDefaults treats 0 as "use default"; bypass by setting
			// the smallest representable charge.
			cfg.TransitionCost = time.Nanosecond
		}
		env, err := NewEnv(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		elapsed, err := runDirChurn(env, files)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		row := AblationRow{Variant: v.name, Nexus: elapsed}
		if baseline == 0 {
			baseline = elapsed
		}
		row.RelativeToBase = float64(elapsed) / float64(baseline)
		rows = append(rows, row)
	}
	return rows, nil
}

// runDirChurn times the NEXUS-side create+delete workload.
func runDirChurn(env *Env, files int) (time.Duration, error) {
	fs := env.NexusFS
	if err := fs.MkdirAll("/ablation"); err != nil {
		return 0, err
	}
	env.FlushCaches()
	start := time.Now()
	for i := 0; i < files; i++ {
		if err := fs.Touch(fmt.Sprintf("/ablation/f%06d", i)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < files; i++ {
		if err := fs.Remove(fmt.Sprintf("/ablation/f%06d", i)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, files int, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — create+delete of %d files (NEXUS side only)\n", files)
	fmt.Fprintf(w, "%-34s %12s %10s\n", "variant", "latency", "vs default")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %12s %9.2fx\n", r.Variant, fmtDur(r.Nexus), r.RelativeToBase)
	}
	fmt.Fprintln(w)
}
