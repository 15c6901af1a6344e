package vec

import (
	"math"
	"testing"
)

func TestSymSetAtMulVec(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(0, 1, 1)
	s.Set(1, 1, 3)
	if s.At(1, 0) != 1 {
		t.Errorf("symmetry broken: At(1,0) = %v", s.At(1, 0))
	}
	dst := NewDense(2)
	if err := s.MulVec(dst, Dense{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(dst, Dense{4, 7}, 1e-12) {
		t.Errorf("MulVec = %v, want [4 7]", dst)
	}
	if err := s.MulVec(dst, Dense{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestAddOuterGram(t *testing.T) {
	s := NewSym(2)
	if err := s.AddOuter(1, Dense{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddOuter(1, Dense{3, 0}); err != nil {
		t.Fatal(err)
	}
	// [1 2;2 4] + [9 0;0 0] = [10 2;2 4]
	want := []float64{10, 2, 2, 4}
	for i, w := range want {
		if math.Abs(s.Data[i]-w) > 1e-12 {
			t.Errorf("Data[%d] = %v, want %v", i, s.Data[i], w)
		}
	}
	if err := s.AddOuter(1, Dense{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, 1)
	s.Set(2, 2, 2)
	eig, err := s.Eigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(eig[i]-w) > 1e-10 {
			t.Errorf("eig[%d] = %v, want %v", i, eig[i], w)
		}
	}
}

func TestEigenvalues2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(0, 1, 1)
	s.Set(1, 1, 2)
	lo, hi, err := s.ExtremeEigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Errorf("extremes = (%v, %v), want (1, 3)", lo, hi)
	}
}

func TestEigenvaluesTraceAndPSD(t *testing.T) {
	// Gram matrices are PSD with trace = sum of eigenvalues.
	s := NewSym(4)
	rows := []Dense{
		{1, 2, 0, -1},
		{0.5, -1, 2, 0},
		{1, 1, 1, 1},
	}
	for _, r := range rows {
		if err := s.AddOuter(1, r); err != nil {
			t.Fatal(err)
		}
	}
	eig, err := s.Eigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	var trace, sum float64
	for i := 0; i < 4; i++ {
		trace += s.At(i, i)
	}
	for _, e := range eig {
		sum += e
		if e < -1e-9 {
			t.Errorf("Gram matrix has negative eigenvalue %v", e)
		}
	}
	if math.Abs(trace-sum) > 1e-9*(1+trace) {
		t.Errorf("trace %v != eigenvalue sum %v", trace, sum)
	}
	// Rank ≤ 3, so λmin ≈ 0.
	if eig[0] > 1e-9 {
		t.Errorf("rank-deficient Gram should have zero eigenvalue, got %v", eig[0])
	}
}

// TestAddOuterSparseBitIdentical pins that skipping zero coordinates
// leaves every Gram entry bit-identical to the dense rank-one update,
// including the signed-zero products (negative entry × 0 = −0) the dense
// loop adds and the sparse loop skips.
func TestAddOuterSparseBitIdentical(t *testing.T) {
	rows := []Dense{
		{-2, 0, 3, 0},
		{0, -1.5, 0, 0},
		{math.Copysign(0, -1), 4, -0.25, 0},
		{0, 0, 0, 0},
		{1e-300, -1e-300, 0, 7},
		{-3, 0, 0, -1e-170},
	}
	dense, sparse := NewSym(4), NewSym(4)
	w := 1 / float64(len(rows))
	for _, r := range rows {
		if err := dense.AddOuter(w, r); err != nil {
			t.Fatal(err)
		}
		if err := sparse.AddOuterSparse(w, FromDense(r)); err != nil {
			t.Fatal(err)
		}
	}
	negZero := 0
	for i := range dense.Data {
		if math.Float64bits(dense.Data[i]) != math.Float64bits(sparse.Data[i]) {
			t.Errorf("entry %d: dense %v (%#x) vs sparse %v (%#x)", i,
				dense.Data[i], math.Float64bits(dense.Data[i]),
				sparse.Data[i], math.Float64bits(sparse.Data[i]))
		}
		if dense.Data[i] == 0 && math.Signbit(dense.Data[i]) {
			negZero++
		}
	}
	if negZero != 0 {
		t.Errorf("%d Gram entries are −0; sums starting at +0 never are", negZero)
	}
	if err := sparse.AddOuterSparse(1, Sparse{Dim: 3}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestPositiveDefiniteAbove(t *testing.T) {
	diag := func(v ...float64) *Sym {
		s := NewSym(len(v))
		for i, x := range v {
			s.Set(i, i, x)
		}
		return s
	}
	coupled := diag(2, 2) // [2 1; 1 2]: eigenvalues 1 and 3
	coupled.Set(0, 1, 1)
	cases := []struct {
		name  string
		s     *Sym
		shift float64
		want  bool
	}{
		{"identity", diag(1, 1, 1), 1e-12, true},
		{"tiny eigenvalue", diag(1, 5e-13, 2), 1e-12, false},
		{"zero eigenvalue", diag(3, 0, 1), 0, false},
		{"negative shift", diag(1, -1), -2, true},
		{"nan", diag(1, math.NaN()), 0, false},
		{"coupled below", coupled, 0.999, true},
		{"coupled above", coupled, 1.001, false},
	}
	for _, c := range cases {
		if got := c.s.PositiveDefiniteAbove(c.shift); got != c.want {
			t.Errorf("%s: PositiveDefiniteAbove(%g) = %v, want %v", c.name, c.shift, got, c.want)
		}
	}
}
