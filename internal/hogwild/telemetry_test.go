package hogwild

import (
	"runtime"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// denseOnly hides an oracle's sparse capability, forcing the dense code
// path — the control arm of the sparse-vs-dense gated-ops regression.
type denseOnly struct {
	inner grad.Oracle
}

func (o denseOnly) Dim() int                           { return o.inner.Dim() }
func (o denseOnly) Value(x vec.Dense) float64          { return o.inner.Value(x) }
func (o denseOnly) FullGrad(dst, x vec.Dense)          { o.inner.FullGrad(dst, x) }
func (o denseOnly) Grad(dst, x vec.Dense, r *rng.Rand) { o.inner.Grad(dst, x, r) }
func (o denseOnly) Optimum() vec.Dense                 { return o.inner.Optimum() }
func (o denseOnly) Constants() grad.Constants          { return o.inner.Constants() }
func (o denseOnly) CloneFor(w int) grad.Oracle         { return denseOnly{o.inner.CloneFor(w)} }

// sparseWorkload builds a least-squares oracle whose rows are thinned to
// avgNNZ ≪ d, so the dense O(d) scan and the sparse O(nnz) path are an
// order of magnitude apart.
func sparseWorkload(t *testing.T, d int, keep float64) *grad.SparseLeastSquares {
	t.Helper()
	gen := rng.New(7117)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 6 * d, Dim: d, NoiseStd: 0.05}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.SparsifyRows(ds, keep, gen); err != nil {
		t.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sls
}

// TestGatedStrategiesPopulateMaxStaleness: Run must report the gated
// strategies' exact staleness gauge in Result.MaxStaleness even with the
// sampling probe off (the gauge used to be reachable only through the
// strategy value).
func TestGatedStrategiesPopulateMaxStaleness(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() Strategy
		tau  int
	}{
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(3) }, 3},
		{"epoch-fence", func() Strategy { return NewEpochFence(8) }, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strat := tc.mk()
			res, err := Run(Config{
				Workers: 4, TotalIters: 2000, Alpha: 0.02,
				Oracle: q, Seed: 404, Strategy: strat,
				// Probe deliberately off: the gauge alone must fill the field.
			})
			if err != nil {
				t.Fatal(err)
			}
			gauge := strat.(StalenessBounded).ObservedMaxStaleness()
			if res.MaxStaleness != gauge {
				t.Errorf("Result.MaxStaleness = %d, gauge = %d", res.MaxStaleness, gauge)
			}
			if res.MaxStaleness > tc.tau {
				t.Errorf("observed staleness %d exceeds bound %d", res.MaxStaleness, tc.tau)
			}
		})
	}
}

// TestSparseGatedOpsBeatDense: over a sparse oracle with d ≥ 10·nnz, a
// gated strategy must perform strictly fewer shared coordinate operations
// than the same strategy forced onto the dense path — the gate changes
// admission, not the O(d) vs O(nnz) cost of the iteration body.
func TestSparseGatedOpsBeatDense(t *testing.T) {
	const (
		d     = 80
		iters = 500
	)
	sls := sparseWorkload(t, d, 0.08)
	if avg := sls.AvgNNZ(); float64(d) < 10*avg {
		t.Fatalf("workload not sparse enough: d=%d, avg nnz %.1f", d, avg)
	}
	alpha := 0.3 / sls.Constants().L
	for _, tc := range []struct {
		name string
		mk   func() Strategy
	}{
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(4) }},
		{"epoch-fence", func() Strategy { return NewEpochFence(16) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(oracle grad.Oracle) int64 {
				res, err := Run(Config{
					Workers: 2, TotalIters: iters, Alpha: alpha,
					Oracle: oracle, Seed: 99, Strategy: tc.mk(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.CoordOps
			}
			sparseOps := run(sls)
			denseOps := run(denseOnly{sls})
			if sparseOps >= denseOps {
				t.Errorf("sparse gated path %d ops ≥ dense %d", sparseOps, denseOps)
			}
			// The dense body pays ≥ d view reads per iteration; the sparse
			// body pays O(nnz). At 10× sparsity the gap must be large, not
			// marginal.
			if sparseOps*2 >= denseOps {
				t.Errorf("sparse gated path saved too little: %d vs %d ops", sparseOps, denseOps)
			}
		})
	}
}

// TestOrderedWindowLivenessWorkersExceedTau pins the liveness of the
// striped ticket window when the worker count far exceeds the staleness
// bound: with τ=1 at most 2 iterations may be in flight, so 8 workers
// spend most of their time refused at the gate. A lost wakeup or a
// release that misses its slot deadlocks this configuration, and an
// announce left behind by a refused worker that yields its processor
// convoys it; the CI race job additionally runs it under -race.
func TestOrderedWindowLivenessWorkersExceedTau(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5000
	strat := NewBoundedStaleness(1)
	res, err := Run(Config{
		Workers: 8, TotalIters: iters, Alpha: 0.02,
		Oracle: q, Seed: 1, Strategy: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != iters {
		t.Fatalf("completed %d/%d iterations", res.Iters, iters)
	}
	if res.MaxStaleness > 1 {
		t.Errorf("staleness %d exceeds τ=1", res.MaxStaleness)
	}
}

// BenchmarkGatedSparseVsDense quantifies the sparse view-read path of the
// gated disciplines: one op is a 2000-iteration bounded-staleness run
// (τ=4, 2 workers) over a d=256 least-squares oracle with ~8 non-zeros
// per row. The dense-path arm forces the pre-fix behavior (LoadAll +
// full-d scan) by hiding the oracle's sparse capability — the O(d) cost
// every gated run over a sparse oracle used to pay.
func BenchmarkGatedSparseVsDense(b *testing.B) {
	const d = 256
	gen := rng.New(7117)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 4 * d, Dim: d, NoiseStd: 0.05}, gen)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.03, gen); err != nil {
		b.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	alpha := 0.3 / sls.Constants().L
	for _, arm := range []struct {
		name   string
		oracle grad.Oracle
	}{
		{"sparse", sls},
		{"dense-path", denseOnly{sls}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workers: 2, TotalIters: 2000, Alpha: alpha,
					Oracle: arm.oracle, Seed: 42,
					Strategy: NewBoundedStaleness(4),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.CoordOps)/float64(res.Iters), "coordops/iter")
			}
		})
	}
}

// BenchmarkGatedOversubscribed measures the window-gated disciplines
// with more workers than processors: one op is a 20000-iteration run on
// 2×GOMAXPROCS workers over the hogwild sweep's d=32 sparse
// least-squares instance at keep 0.3. Most admissions are refused and
// yield their processor, so the arms time how well the gate lets the
// running workers progress while refused ones wait in the run queue.
func BenchmarkGatedOversubscribed(b *testing.B) {
	const d, iters = 32, 20000
	gen := rng.New(3301)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 6 * d, Dim: d, NoiseStd: 0.05}, gen)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.3, gen); err != nil {
		b.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	alpha := 0.3 / sls.Constants().L
	workers := 2 * runtime.GOMAXPROCS(0)
	for _, arm := range []struct {
		name  string
		strat func() Strategy
	}{
		{"bounded-staleness/tau=1", func() Strategy { return NewBoundedStaleness(1) }},
		{"bounded-staleness/tau=8", func() Strategy { return NewBoundedStaleness(8) }},
		{"epoch-fence/every=4", func() Strategy { return NewEpochFence(4) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var ips, ops float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workers: workers, TotalIters: iters, Alpha: alpha,
					Oracle: sls, Seed: 42, Strategy: arm.strat(),
				})
				if err != nil {
					b.Fatal(err)
				}
				ips += res.UpdatesPerSec
				ops += float64(res.CoordOps) / float64(res.Iters)
			}
			b.ReportMetric(ips/float64(b.N), "iters/s")
			b.ReportMetric(ops/float64(b.N), "coordops/iter")
		})
	}
}

// TestFullResultAggregatesTelemetry: RunFull must carry the per-epoch
// telemetry forward — an Algorithm-2 run reports the same accounting a
// single Run does, summed across epochs.
func TestFullResultAggregatesTelemetry(t *testing.T) {
	q, err := grad.NewIsoQuadratic(6, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		perEpoch = 400
		epochs   = 3
	)
	full, err := RunFull(FullConfig{
		Workers: 2, Epsilon: 0.05, Alpha0: 0.1, ItersPerEpoch: perEpoch,
		Oracle: q, Seed: 5, Epochs: epochs,
		Strategy: NewBoundedStaleness(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Iters != epochs*perEpoch {
		t.Errorf("Iters = %d, want %d", full.Iters, epochs*perEpoch)
	}
	// Every completed iteration touches the model at least once.
	if full.CoordOps < int64(full.Iters) {
		t.Errorf("CoordOps = %d below iteration count %d", full.CoordOps, full.Iters)
	}
	if full.Elapsed <= 0 {
		t.Error("Elapsed not aggregated")
	}
	if full.UpdatesPerSec <= 0 {
		t.Error("UpdatesPerSec not derived")
	}
	if full.MaxStaleness > 2 {
		t.Errorf("MaxStaleness %d exceeds τ=2", full.MaxStaleness)
	}

	// One epoch ≡ one Run with the same seed: the aggregate of a
	// single-epoch RunFull must equal the single run's telemetry exactly
	// (single worker ⇒ deterministic).
	one, err := RunFull(FullConfig{
		Workers: 1, Epsilon: 0.05, Alpha0: 0.1, ItersPerEpoch: perEpoch,
		Oracle: q, Seed: 5, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(Config{
		Workers: 1, TotalIters: perEpoch, Alpha: 0.1,
		Oracle: q, Seed: 5, X0: vec.NewDense(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.Iters != direct.Iters || one.CoordOps != direct.CoordOps {
		t.Errorf("single-epoch FullResult (%d iters, %d ops) != direct Run (%d, %d)",
			one.Iters, one.CoordOps, direct.Iters, direct.CoordOps)
	}
}
