// Package experiments contains one driver per quantitative claim of the
// paper, regenerating the corresponding table/series (see DESIGN.md §3 for
// the experiment index E1–E19). Each driver returns report tables with the
// paper's predicted values side by side with Monte-Carlo measurements from
// the simulator (or the real-thread runtime for E10).
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/report"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// Scale selects experiment size: Quick for tests/benchmarks, Full for the
// cmd/asgdbench reproduction runs recorded in EXPERIMENTS.md.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// Driver runs one experiment at the given scale.
type Driver func(Scale) ([]*report.Table, error)

// ErrUnknown reports an unknown experiment id.
var ErrUnknown = errors.New("experiments: unknown experiment id")

// registry maps experiment ids to drivers, in display order.
var registry = []struct {
	ID     string
	Title  string
	Driver Driver
}{
	{"e1", "Theorem 3.1: sequential failure-probability bound", E1SequentialBound},
	{"e2", "Section 5 / Theorem 5.1: adversarial-delay lower bound", E2LowerBound},
	{"e3", "Lemma 6.2: bad iterations per K·n window", E3BadIterations},
	{"e4", "Lemma 6.4: delay-indicator sum bound", E4DelaySum},
	{"e5", "Theorem 6.5 / Corollary 6.7: asynchronous upper bound", E5UpperBound},
	{"e6", "Corollary 7.1: FullSGD guaranteed convergence", E6FullSGD},
	{"e7", "Section 2: average interval contention τavg ≤ 2n", E7AvgContention},
	{"e8", "Section 8: step-size vs delay trade-off", E8Tradeoff},
	{"e9", "Figure 1 / Lemma 6.1: inconsistent views model", E9Views},
	{"e10", "Section 8: real-thread throughput (shape only)", E10Throughput},
	{"e11", "Ablation: removing the single-non-zero gradient assumption", E11SparsityAblation},
	{"e12", "Extension (§8): explicit momentum under adversarial delay", E12Momentum},
	{"e13", "Extension (§8/related work): staleness-aware scaling vs the adversary", E13StalenessAware},
	{"e14", "Section 3: martingale (hitting) vs classic regret analyses", E14AnalysisStyles},
	{"e15", "Sparse update pipeline: O(nnz) work and touched-coordinate contention", E15SparsePipeline},
	{"e16", "Staleness gate: capping the Section-5 adversary's τ at runtime", E16StalenessGate},
	{"e17", "Staleness phase diagram: loss and observed τ over τ × n × sparsity (sweep engine)", E17PhaseDiagram},
	{"e19", "Fault/recovery phase diagram: crashes, ticket recovery, Byzantine gradients × defenses", E19FaultRecovery},
}

// IDs returns the experiment ids in display order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// TitleOf returns the human title of an experiment id.
func TitleOf(id string) (string, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Title, nil
		}
	}
	return "", fmt.Errorf("%q: %w", id, ErrUnknown)
}

// Run executes one experiment and writes its tables to w.
func Run(id string, scale Scale, w io.Writer) error {
	for _, e := range registry {
		if e.ID != id {
			continue
		}
		fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
		tables, err := e.Driver(scale)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("%q: %w", id, ErrUnknown)
}

// RunAll executes every experiment in order.
func RunAll(scale Scale, w io.Writer) error {
	for _, e := range registry {
		if err := Run(e.ID, scale, w); err != nil {
			return err
		}
	}
	return nil
}

// --- shared workload helpers -------------------------------------------

// isoQuadOracle16 is the shared real-thread sweep workload of E10 and
// E16c: the isotropic quadratic at d=16 with σ=0.3, started at 0.5·𝟙.
// One definition so the two tables always benchmark the same problem.
func isoQuadOracle16() sweep.Oracle {
	return sweep.Oracle{
		Name: "iso-quadratic/d=16",
		Make: func(int, *rng.Rand) (grad.Oracle, vec.Dense, error) {
			q, err := grad.NewIsoQuadratic(16, 1, 0.3, 3, nil)
			if err != nil {
				return nil, nil, err
			}
			return q, vec.Constant(16, 0.5), nil
		},
	}
}

// stdQuadratic is the standard upper-bound workload: isotropic quadratic
// in dimension d with unit strong convexity, noise σ, and M² ball radius
// r0. x0 is placed at distance dist0 from the optimum along (1,1,…)/√d.
func stdQuadratic(d int, sigma, r0, dist0 float64) (*grad.Quadratic, vec.Dense, error) {
	q, err := grad.NewIsoQuadratic(d, 1, sigma, r0, nil)
	if err != nil {
		return nil, nil, err
	}
	x0 := vec.Constant(d, dist0/math.Sqrt(float64(d)))
	return q, x0, nil
}
