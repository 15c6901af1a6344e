package hogwild

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/vec"
)

// TestDisciplineBadConfigs is the table-driven validation coverage for the
// gated disciplines, mirroring the bad-config tests of the older
// strategies: τ ≤ 0, batch size ≤ 0, epoch length ≤ 0, and a nil oracle
// must all be rejected with ErrBadConfig.
func TestDisciplineBadConfigs(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workers: 2, TotalIters: 100, Alpha: 0.05, Oracle: q}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bounded-staleness tau=0", func(c *Config) { c.Strategy = NewBoundedStaleness(0) }},
		{"bounded-staleness tau<0", func(c *Config) { c.Strategy = NewBoundedStaleness(-3) }},
		{"update-batching b=0", func(c *Config) { c.Strategy = NewUpdateBatching(0) }},
		{"update-batching b<0", func(c *Config) { c.Strategy = NewUpdateBatching(-1) }},
		{"epoch-fence every=0", func(c *Config) { c.Strategy = NewEpochFence(0) }},
		{"epoch-fence every<0", func(c *Config) { c.Strategy = NewEpochFence(-8) }},
		{"bounded-staleness nil oracle", func(c *Config) {
			c.Strategy = NewBoundedStaleness(4)
			c.Oracle = nil
		}},
		{"update-batching nil oracle", func(c *Config) {
			c.Strategy = NewUpdateBatching(4)
			c.Oracle = nil
		}},
		{"epoch-fence nil oracle", func(c *Config) {
			c.Strategy = NewEpochFence(4)
			c.Oracle = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("invalid config accepted: %v", err)
			}
		})
	}
}

// TestBoundedStalenessEnforcesTau: the observed staleness of every
// iteration — the number of iterations begun while it was in flight — must
// never exceed τ, for any τ and worker count, and the run must apply every
// update (counting oracle: the final model is exact).
func TestBoundedStalenessEnforcesTau(t *testing.T) {
	const T, alpha, k, d = 4000, 0.001, 2, 8
	for _, tau := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2, 8} {
			strat := NewBoundedStaleness(tau)
			res, err := Run(Config{
				Workers: workers, TotalIters: T, Alpha: alpha,
				Oracle: constSparseOracle{d: d, k: k}, Strategy: strat,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != "bounded-staleness" {
				t.Fatalf("strategy name %q", res.Strategy)
			}
			sb := strat.(StalenessBounded)
			if got := sb.ObservedMaxStaleness(); got > tau {
				t.Errorf("tau=%d workers=%d: observed staleness %d exceeds the bound",
					tau, workers, got)
			}
			for j := 0; j < d; j++ {
				want := 0.0
				if j < k {
					want = -alpha * T
				}
				if math.Abs(res.Final[j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("tau=%d workers=%d: X[%d] = %v, want %v (lost updates)",
						tau, workers, j, res.Final[j], want)
				}
			}
		}
	}
}

// TestUpdateBatchingFlushesEverything: with a counting oracle, batching
// must apply exactly T gradients regardless of whether T divides the batch
// size — the final partial batch reaches the model through the Flusher
// hook — and the shared write traffic must drop by the batch factor.
func TestUpdateBatchingFlushesEverything(t *testing.T) {
	const alpha, k, d = 0.001, 3, 16
	for _, tc := range []struct{ T, b, workers int }{
		{2000, 8, 4},   // T divisible by b
		{2003, 8, 4},   // final partial batch
		{100, 1000, 2}, // batch larger than the per-worker share
		{500, 1, 1},    // b=1 degenerates to lock-free
	} {
		res, err := Run(Config{
			Workers: tc.workers, TotalIters: tc.T, Alpha: alpha,
			Oracle: constSparseOracle{d: d, k: k}, Strategy: NewUpdateBatching(tc.b),
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			want := -alpha * float64(tc.T)
			if math.Abs(res.Final[j]-want) > 1e-9*math.Abs(want) {
				t.Errorf("T=%d b=%d: X[%d] = %v, want %v (lost buffered updates)",
					tc.T, tc.b, j, res.Final[j], want)
			}
		}
	}
}

// TestUpdateBatchingCutsWriteTraffic checks the ~b× traffic claim exactly
// on the counting oracle: the sparse-capable oracle reads k coordinates
// per iteration, and the batched writes collapse to k per b iterations.
func TestUpdateBatchingCutsWriteTraffic(t *testing.T) {
	const T, b, k, d = 1200, 8, 4, 64
	res, err := Run(Config{
		Workers: 1, TotalIters: T, Alpha: 0.01,
		Oracle: constSparseOracle{d: d, k: k}, Strategy: NewUpdateBatching(b),
	})
	if err != nil {
		t.Fatal(err)
	}
	// T*k support reads + (T/b)*k batched writes (T divisible by b).
	want := int64(T*k + (T/b)*k)
	if res.CoordOps != want {
		t.Errorf("CoordOps = %d, want %d (reads + writes/b)", res.CoordOps, want)
	}
}

// TestEpochFenceConsistentSnapshots: with epoch length E, an iteration of
// epoch e must see all e·E earlier updates. The probing oracle asserts it
// from inside Grad: on the counting workload every applied update moves
// coordinate 0 by exactly −α, so the view's update count is readable off
// the model value.
func TestEpochFenceConsistentSnapshots(t *testing.T) {
	const T, E, alpha = 1500, 50, 0.001
	strat := NewEpochFence(E)
	res, err := Run(Config{
		Workers: 4, TotalIters: T, Alpha: alpha,
		Oracle: constSparseOracle{d: 4, k: 1}, Strategy: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "epoch-fence" {
		t.Fatalf("strategy name %q", res.Strategy)
	}
	if want := -alpha * T; math.Abs(res.Final[0]-want) > 1e-9*math.Abs(want) {
		t.Errorf("X[0] = %v, want %v", res.Final[0], want)
	}
}

// TestEpochFenceOversubscribedExactAndLive: 8 workers contend for the
// fence's window, far more than the every−1 iterations an epoch lets
// interleave, so most admissions are refused and yield. The run must
// still finish its whole budget, apply every update (counting oracle:
// the final model is exact) and keep the observed staleness ≤ every−1.
func TestEpochFenceOversubscribedExactAndLive(t *testing.T) {
	const T, alpha, k, d = 3000, 0.001, 2, 8
	for _, every := range []int{1, 2, 8} {
		strat := NewEpochFence(every)
		res, err := Run(Config{
			Workers: 8, TotalIters: T, Alpha: alpha,
			Oracle: constSparseOracle{d: d, k: k}, Strategy: strat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != T {
			t.Errorf("every=%d: completed %d/%d iterations", every, res.Iters, T)
		}
		if got := strat.(StalenessBounded).ObservedMaxStaleness(); got > every-1 {
			t.Errorf("every=%d: observed staleness %d exceeds every−1 = %d", every, got, every-1)
		}
		for j := 0; j < d; j++ {
			want := 0.0
			if j < k {
				want = -alpha * T
			}
			if math.Abs(res.Final[j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("every=%d: X[%d] = %v, want %v (lost updates)", every, j, res.Final[j], want)
			}
		}
	}
}

// TestDisciplinesConverge: each discipline must reach the optimum of a
// well-conditioned quadratic like the plain lock-free strategy does.
func TestDisciplinesConverge(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{
		NewBoundedStaleness(4), NewUpdateBatching(8), NewEpochFence(32),
	} {
		res, err := Run(Config{
			Workers: 4, TotalIters: 4000, Alpha: 0.05, Oracle: q, Seed: 7,
			Strategy: strat, X0: vec.Constant(8, 1),
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		d2, err := vec.Dist2Sq(res.Final, q.Optimum())
		if err != nil {
			t.Fatal(err)
		}
		if d2 > 0.5 {
			t.Errorf("%s: final dist² = %v", strat.Name(), d2)
		}
	}
}

// TestDisciplinesReusableAcrossSequentialRuns covers the RunFull pattern
// for the gated disciplines: Bind must fully re-initialize the ticket
// window and observed-staleness state.
func TestDisciplinesReusableAcrossSequentialRuns(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{NewBoundedStaleness(3), NewEpochFence(40)} {
		res, err := RunFull(FullConfig{
			Workers: 2, Epsilon: 0.1, Alpha0: 0.4, ItersPerEpoch: 1200,
			Oracle: q, Seed: 5, Strategy: strat,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.FinalDist > 3*math.Sqrt(0.1) {
			t.Errorf("%s: FullSGD dist %v", strat.Name(), res.FinalDist)
		}
	}
}
