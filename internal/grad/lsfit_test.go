package grad

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// denseGram is the reference Gram matrix, accumulated with dense
// rank-one updates over every coordinate.
func denseGram(t *testing.T, ds *data.Dataset) *vec.Sym {
	t.Helper()
	g := vec.NewSym(ds.Dim())
	w := 1 / float64(ds.Len())
	for _, r := range ds.Rows {
		if err := g.AddOuter(w, r); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// jacobiLambdaMin is the reference acceptance quantity: λmin of the
// reference Gram matrix, by the Jacobi solve.
func jacobiLambdaMin(t *testing.T, ds *data.Dataset) float64 {
	t.Helper()
	lmin, _, err := denseGram(t, ds).ExtremeEigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	return lmin
}

// sameBits reports whether a and b hold identical float64 bits.
func sameBits(a, b vec.Dense) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// zeroedColumnDataset thins rows until SparsifyRows zeroes a whole
// column, making the Gram matrix singular.
func zeroedColumnDataset(t *testing.T) *data.Dataset {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		gen := rng.New(seed)
		ds, err := data.GenLinear(data.LinearConfig{Samples: 48, Dim: 8, NoiseStd: 0.1}, gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := data.SparsifyRows(ds, 0.05, gen); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < ds.Dim(); j++ {
			zero := true
			for _, r := range ds.Rows {
				zero = zero && r[j] == 0
			}
			if zero {
				return ds
			}
		}
	}
	t.Fatal("no seed zeroed a column")
	return nil
}

// firstRows returns ds truncated to its first n samples.
func firstRows(ds *data.Dataset, n int) *data.Dataset {
	ds.Rows, ds.Labels = ds.Rows[:n], ds.Labels[:n]
	return ds
}

// scaledColumn returns ds with column j multiplied by s.
func scaledColumn(ds *data.Dataset, j int, s float64) *data.Dataset {
	for _, r := range ds.Rows {
		r[j] *= s
	}
	return ds
}

// TestCholeskyAgreesWithJacobi: the Cholesky acceptance check, the
// oracles built on it and the Jacobi λmin agree on accept or reject,
// rejections carry the Jacobi λmin's error text, and an accepted
// oracle's lazily computed c has the eager eigensolve's bits and its x*
// the bits of a solve on the reference Gram matrix.
func TestCholeskyAgreesWithJacobi(t *testing.T) {
	ill, err := data.GenLinear(data.LinearConfig{Samples: 300, Dim: 12, NoiseStd: 0.1, CondExp: 100}, rng.New(46))
	if err != nil {
		t.Fatal(err)
	}
	dup := genDS(t, 60, 6, 0.1, 47)
	for _, r := range dup.Rows {
		r[3] = r[1]
	}
	cases := []struct {
		name   string
		ds     *data.Dataset
		accept bool // the expected verdict, so both branches stay covered
	}{
		{"m<d", genDS(t, 3, 5, 0, 41), false},
		{"m<d sparsified", firstRows(sparseDataset(t, 10, 0.5), 8), false},
		{"zeroed column", zeroedColumnDataset(t), false},
		{"duplicated column", dup, false},
		{"tiny column", scaledColumn(genDS(t, 60, 6, 0.1, 43), 2, 1e-8), false},
		{"small column", scaledColumn(genDS(t, 60, 6, 0.1, 44), 2, 1e-5), true},
		{"well-conditioned", genDS(t, 200, 4, 0.1, 45), true},
		{"ill-conditioned", ill, true},
		{"sparse keep=0.15 d=32", sparseDataset(t, 32, 0.15), true},
		{"sparse keep=0.6 d=48", sparseDataset(t, 48, 0.6), true},
	}
	for _, tc := range cases {
		name, ds := tc.name, tc.ds
		lmin := jacobiLambdaMin(t, ds)
		accept := lmin > minEigen
		if accept != tc.accept {
			t.Fatalf("%s: Jacobi λmin=%.3g, fixture expects accept=%v", name, lmin, tc.accept)
		}
		g, err := ds.Gram()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.PositiveDefiniteAbove(minEigen); got != accept {
			t.Errorf("%s: Cholesky accepts=%v, Jacobi λmin=%.3g", name, got, lmin)
		}
		var xstar vec.Dense
		if accept {
			if xstar, err = solveNormalEquations(ds, denseGram(t, ds)); err != nil {
				t.Fatal(err)
			}
		}
		wantErr := fmt.Sprintf("%v: singular Gram matrix (λmin=%.3g), need m ≥ d and full rank", ErrBadParam, lmin)
		dense, derr := NewLeastSquares(ds, 2)
		sparse, serr := NewSparseLeastSquares(ds, 2)
		for kind, o := range map[string]struct {
			o   Oracle
			err error
		}{"dense": {dense, derr}, "sparse": {sparse, serr}} {
			switch {
			case !accept && o.err == nil:
				t.Errorf("%s/%s: accepted with Jacobi λmin=%.3g", name, kind, lmin)
			case !accept && o.err.Error() != wantErr:
				t.Errorf("%s/%s: error %q, want %q", name, kind, o.err, wantErr)
			case accept && o.err != nil:
				t.Errorf("%s/%s: rejected with Jacobi λmin=%.3g: %v", name, kind, lmin, o.err)
			case accept:
				if c := o.o.Constants().C; math.Float64bits(c) != math.Float64bits(lmin) {
					t.Errorf("%s/%s: lazy C = %v, eager λmin = %v", name, kind, c, lmin)
				}
				if !sameBits(o.o.Optimum(), xstar) {
					t.Errorf("%s/%s: x* differs from the reference solve", name, kind)
				}
			}
		}
	}
}

// TestLeastSquaresRejectsNonFinite: a non-finite feature or label used to
// yield a NaN c or x*; both oracles now reject it.
func TestLeastSquaresRejectsNonFinite(t *testing.T) {
	poison := map[string]func(ds *data.Dataset){
		"inf feature": func(ds *data.Dataset) { ds.Rows[3][1] = math.Inf(1) },
		"nan feature": func(ds *data.Dataset) { ds.Rows[0][0] = math.NaN() },
		"nan label":   func(ds *data.Dataset) { ds.Labels[5] = math.NaN() },
		"-inf label":  func(ds *data.Dataset) { ds.Labels[2] = math.Inf(-1) },
	}
	for name, f := range poison {
		ds := genDS(t, 40, 4, 0.1, 61)
		f(ds)
		if _, err := NewLeastSquares(ds, 1); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s: dense oracle err = %v, want ErrBadParam", name, err)
		}
		if _, err := NewSparseLeastSquares(ds, 1); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s: sparse oracle err = %v, want ErrBadParam", name, err)
		}
	}
}

// TestLazyConstantsConcurrentClones: clones share one lazily computed c;
// calling Constants from several clones at once is race-free (run with
// -race) and every call sees the eager eigensolve's bits.
func TestLazyConstantsConcurrentClones(t *testing.T) {
	ds := sparseDataset(t, 24, 0.4)
	want := jacobiLambdaMin(t, ds)
	for _, mk := range []func() (Oracle, error){
		func() (Oracle, error) { return NewLeastSquares(ds, 2) },
		func() (Oracle, error) { return NewSparseLeastSquares(ds, 2) },
	} {
		o, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]float64, 6)
		for w := range got {
			clone := o.CloneFor(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = clone.Constants().C
			}()
		}
		wg.Wait()
		for w, c := range append(got, o.Constants().C) {
			if math.Float64bits(c) != math.Float64bits(want) {
				t.Errorf("%T caller %d: C = %v, want %v", o, w, c, want)
			}
		}
	}
}

// BenchmarkNewSparseLeastSquares times one phase-diagram oracle build:
// 6d samples thinned to keep 0.3, as the sweep's sparsity axis draws.
func BenchmarkNewSparseLeastSquares(b *testing.B) {
	for _, d := range []int{32, 128, 256} {
		gen := rng.New(uint64(d))
		ds, err := data.GenLinear(data.LinearConfig{Samples: 6 * d, Dim: d, NoiseStd: 0.05}, gen)
		if err != nil {
			b.Fatal(err)
		}
		if err := data.SparsifyRows(ds, 0.3, gen); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSparseLeastSquares(ds, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
