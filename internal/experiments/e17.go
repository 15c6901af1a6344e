package experiments

import (
	"fmt"
	"strings"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/mathx"
	"asyncsgd/internal/report"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// PhaseOpts parameterizes the staleness-phase-diagram grid that E17 (and
// the `asgdbench sweep` subcommand) explore: a bounded-staleness τ ×
// workers × sparsity grid with seed replicates, on one or both runtimes.
type PhaseOpts struct {
	Runtimes   []sweep.Runtime // the runtime axis, outermost in cell order
	Taus       []int           // bounded-staleness gate values (the strategy axis)
	Workers    []int           // goroutines (Hogwild) or simulated threads (Machine)
	Keeps      []float64       // row densities of the sparse least-squares oracle
	Dim        int             // model dimension
	Replicates int             // seed replicates per grid point
	Iters      int             // per-cell iteration budget
	Seed       uint64          // spec seed (per-cell seeds are split from it)
	Adversary  int             // Machine cells only: MaxStale budget (0 ⇒ round-robin)
	Pin        bool            // Hogwild cells only: pin worker goroutines to OS threads

	// The robustness axes (nil ⇒ neutral): fault-axis labels for
	// sweep.ParseFaults ("crash/1/rejoin", …), corruption-axis labels for
	// sweep.ParseByzantine ("signflip/1", …) and defense-axis labels for
	// sweep.ParseDefense ("clip/5", "median"). E19 and the serve/CLI
	// sweep surfaces all feed the grid through here.
	Faults    []string
	Byzantine []string
	Defenses  []string
}

// phaseOracle is one sparsity-axis entry: least squares over synthetic
// linear data thinned to the given row density. Each cell draws its own
// problem instance from its split seed.
func phaseOracle(keep float64) sweep.Oracle {
	return sweep.Oracle{
		Name: fmt.Sprintf("sparse-ls/keep=%g", keep),
		Make: func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
			_, sls, err := phaseInstance(keep, d, r)
			if err != nil {
				return nil, nil, err
			}
			return sls, vec.Constant(d, 0.5), nil
		},
	}
}

// phaseInstance draws one problem instance of the sparsity-axis entry
// keep: the thinned dataset and its oracle.
func phaseInstance(keep float64, d int, r *rng.Rand) (*data.Dataset, *grad.SparseLeastSquares, error) {
	ds, err := data.GenLinear(data.LinearConfig{
		Samples: 6 * d, Dim: d, NoiseStd: 0.05,
	}, r)
	if err != nil {
		return nil, nil, err
	}
	if err := data.SparsifyRows(ds, keep, r); err != nil {
		return nil, nil, err
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		return nil, nil, err
	}
	return ds, sls, nil
}

// PhaseDiagramSpec builds the sweep spec for the staleness phase diagram.
// The step size is derived once from probe instances of the sparsity axis
// (SparsifyRows rescales surviving entries by 1/keep, so the smallest
// keep dominates the curvature L): α = 0.3/L_max, stable across the whole
// grid at a safety margin over per-replicate L variation. A probe's L is
// its dataset's max row norm², the value its oracle's Constants().L
// holds; reading it from the dataset skips the lazy eigensolve behind
// Constants().C. The probe oracle is still built, so a singular probe
// instance rejects the spec.
//
// Several runtimes make one spec whose name joins the per-runtime names
// with "+". Cell seeds fold axis values, never the spec name or grid
// position, so its cells, indices and seeds are exactly those of the
// single-runtime specs concatenated in Runtimes order.
func PhaseDiagramSpec(o PhaseOpts) (sweep.Spec, error) {
	if len(o.Runtimes) == 0 || len(o.Taus) == 0 || len(o.Workers) == 0 || len(o.Keeps) == 0 {
		return sweep.Spec{}, fmt.Errorf("%w: PhaseDiagramSpec needs Runtimes, Taus, Workers and Keeps",
			sweep.ErrBadSpec)
	}
	oracles := make([]sweep.Oracle, 0, len(o.Keeps))
	var lmax float64
	for i, keep := range o.Keeps {
		om := phaseOracle(keep)
		ds, _, err := phaseInstance(keep, o.Dim, rng.New(o.Seed+uint64(i)*0x9E3779B9))
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("probe %s: %w", om.Name, err)
		}
		if l := ds.MaxRowNorm2Sq(); l > lmax {
			lmax = l
		}
		oracles = append(oracles, om)
	}
	strategies := make([]sweep.Strategy, 0, len(o.Taus))
	for _, tau := range o.Taus {
		strategies = append(strategies, sweep.BoundedStaleness(tau))
	}
	names := make([]string, len(o.Runtimes))
	machine := false
	for i, rt := range o.Runtimes {
		names[i] = "staleness-phase-diagram/" + rt.String()
		machine = machine || rt == sweep.Machine
	}
	spec := sweep.Spec{
		Name:       strings.Join(names, "+"),
		Seed:       o.Seed,
		Runtimes:   o.Runtimes,
		Oracles:    oracles,
		Strategies: strategies,
		Workers:    o.Workers,
		Dims:       []int{o.Dim},
		Alphas:     []float64{0.3 / lmax},
		Replicates: o.Replicates,
		Iters:      o.Iters,
		PinWorkers: o.Pin,
	}
	// Only machine cells read the policy.
	if machine && o.Adversary > 0 {
		budget := o.Adversary
		spec.Policy = func(int, *rng.Rand) shm.Policy {
			return &sched.MaxStale{Budget: budget}
		}
	}
	for _, s := range o.Faults {
		f, err := sweep.ParseFaults(s)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Faults = append(spec.Faults, f)
	}
	for _, s := range o.Byzantine {
		b, err := sweep.ParseByzantine(s)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Byzantine = append(spec.Byzantine, b)
	}
	for _, s := range o.Defenses {
		d, err := sweep.ParseDefense(s)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Defenses = append(spec.Defenses, d)
	}
	return spec, nil
}

// E17PhaseDiagram is the staleness phase diagram of Theorem 6.5's
// parameters: final loss and observed maximum staleness over a
// bounded-staleness τ × workers × sparsity grid, on both runtimes,
// executed by the internal/sweep engine with ≥2 seed replicates per
// point. The machine leg runs under the budgeted max-staleness adversary,
// so the gate is actually contested: observed staleness must track
// min(τ, what the adversary can inject) and loss must degrade as the
// gate loosens. The marginal table collapses each τ across the
// workers × sparsity plane (Welford merges), the phase-diagram row of the
// paper's convergence-vs-delay story.
func E17PhaseDiagram(s Scale) ([]*report.Table, error) {
	mo := PhaseOpts{
		Runtimes:   []sweep.Runtime{sweep.Machine},
		Taus:       []int{1, 2, 4, 8},
		Workers:    []int{2, 3},
		Keeps:      []float64{0.2, 0.6},
		Dim:        s.pick(24, 32),
		Replicates: s.pick(2, 3),
		Iters:      s.pick(150, 1500),
		Seed:       1701,
		// The budget scales with the iteration count so the adversary's
		// injectable delay stays a constant fraction of the run.
		Adversary: s.pick(24, 200),
	}
	if s == Full {
		// Workers beyond τ+1 matter: in-flight iterations are capped at
		// min(τ+1, n), so observed staleness is min(τ, n−1) — the full grid
		// includes n=6 so every τ ≤ 5 actually binds.
		mo.Workers = []int{2, 4, 6}
		mo.Keeps = []float64{0.15, 0.4}
	}
	mspec, err := PhaseDiagramSpec(mo)
	if err != nil {
		return nil, err
	}
	mres, err := sweep.Run(mspec)
	if err != nil {
		return nil, err
	}
	mstats := sweep.Aggregate(mres)
	mt := sweep.Table("E17a: staleness phase diagram, simulated machine", mstats)
	mt.Note = "bounded-staleness τ × threads × sparsity, MaxStale adversary budget " +
		report.In(mo.Adversary) + ", " + report.In(mo.Replicates) + " replicates/point"

	ho := mo
	ho.Runtimes = []sweep.Runtime{sweep.Hogwild}
	ho.Workers = []int{2, 4}
	ho.Iters = s.pick(3000, 30000)
	ho.Adversary = 0
	if s == Full {
		ho.Workers = []int{1, 2, 4}
	}
	hspec, err := PhaseDiagramSpec(ho)
	if err != nil {
		return nil, err
	}
	hres, err := sweep.Run(hspec)
	if err != nil {
		return nil, err
	}
	hstats := sweep.Aggregate(hres)
	ht := sweep.Table("E17b: staleness phase diagram, real threads", hstats)
	ht.Note = "same grid on goroutines; observed staleness is the gated strategies' exact gauge " +
		"(single-core hosts compress the shape)"

	// τ marginals: collapse the workers × sparsity plane per gate value on
	// each runtime — the loss-vs-τ curve the phase diagram is sliced from.
	marg := report.New("E17c: τ marginals (collapsed over workers × sparsity)",
		"runtime", "gate_tau", "points", "loss_mean", "loss_std", "stale_max", "bound_holds")
	for _, leg := range []struct {
		name  string
		stats []sweep.PointStat
		taus  []int
	}{
		{"machine", mstats, mo.Taus},
		{"hogwild", hstats, ho.Taus},
	} {
		for _, tau := range leg.taus {
			var loss mathx.Welford
			points, staleMax := 0, -1
			for i := range leg.stats {
				p := &leg.stats[i]
				if p.Cell.Tau != tau {
					continue
				}
				points++
				loss.Merge(p.Loss)
				if p.MaxStaleness > staleMax {
					staleMax = p.MaxStaleness
				}
			}
			marg.AddRow(leg.name, report.In(tau), report.In(points),
				report.Fl(loss.Mean()), report.Fl(loss.Std()),
				report.In(staleMax), boolCell(staleMax <= tau))
		}
	}
	return []*report.Table{mt, ht, marg}, nil
}
