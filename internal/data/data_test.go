package data

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

func TestGenLinearShapesAndDeterminism(t *testing.T) {
	cfg := LinearConfig{Samples: 50, Dim: 4, NoiseStd: 0.1}
	a, err := GenLinear(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenLinear(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 50 || a.Dim() != 4 {
		t.Fatalf("shape = (%d, %d)", a.Len(), a.Dim())
	}
	for i := range a.Rows {
		if !vec.ApproxEqual(a.Rows[i], b.Rows[i], 0) || a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	if !vec.ApproxEqual(a.Truth, b.Truth, 0) {
		t.Error("truth differs")
	}
	if math.Abs(a.Truth.Norm2()-1) > 1e-12 {
		t.Errorf("default truth norm = %v, want 1", a.Truth.Norm2())
	}
}

func TestGenLinearNoiselessLabelsExact(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 30, Dim: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.Rows {
		want := vec.MustDot(row, ds.Truth)
		if math.Abs(ds.Labels[i]-want) > 1e-12 {
			t.Fatalf("label %d = %v, want %v", i, ds.Labels[i], want)
		}
	}
}

func TestGenLinearConditioning(t *testing.T) {
	ds, err := GenLinear(LinearConfig{
		Samples: 4000, Dim: 4, CondExp: 10,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Gram()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.ExtremeEigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	cond := hi / lo
	// Expected condition number ≈ CondExp² = 100 (sampling noise wide).
	if cond < 30 || cond > 300 {
		t.Errorf("condition number = %v, want ≈100", cond)
	}
}

func TestGenLinearValidation(t *testing.T) {
	bad := []LinearConfig{
		{Samples: 0, Dim: 2},
		{Samples: 2, Dim: 0},
		{Samples: 2, Dim: 2, NoiseStd: -1},
	}
	for _, cfg := range bad {
		if _, err := GenLinear(cfg, rng.New(1)); !errors.Is(err, ErrBadShape) {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenLogistic(t *testing.T) {
	ds, err := GenLogistic(LogisticConfig{
		Samples: 500, Dim: 3, Margin: 3,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	pos, agree := 0, 0
	for i, row := range ds.Rows {
		y := ds.Labels[i]
		if y != 1 && y != -1 {
			t.Fatalf("label %v not ±1", y)
		}
		if y == 1 {
			pos++
		}
		if y*vec.MustDot(row, ds.Truth) > 0 {
			agree++
		}
	}
	if pos < 100 || pos > 400 {
		t.Errorf("positives = %d/500, badly unbalanced", pos)
	}
	// With margin 3, labels should mostly agree with the planted model.
	if agree < 350 {
		t.Errorf("only %d/500 labels agree with planted model", agree)
	}
}

func TestGenLogisticValidation(t *testing.T) {
	if _, err := GenLogistic(LogisticConfig{Samples: 1, Dim: 1, FlipProb: 0.6},
		rng.New(1)); !errors.Is(err, ErrBadShape) {
		t.Error("flip prob > 0.5 accepted")
	}
	if _, err := GenLogistic(LogisticConfig{Samples: 0, Dim: 1},
		rng.New(1)); !errors.Is(err, ErrBadShape) {
		t.Error("0 samples accepted")
	}
}

func TestSparsifyRowsPreservesScaleAndSparsifies(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 2000, Dim: 10}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var before float64
	for _, r := range ds.Rows {
		before += r.Norm2Sq()
	}
	if err := SparsifyRows(ds, 0.3, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	var after float64
	nnz := 0
	for _, r := range ds.Rows {
		after += r.Norm2Sq()
		nnz += r.NNZ()
	}
	frac := float64(nnz) / float64(2000*10)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("kept fraction = %v, want ≈0.3", frac)
	}
	// E after = before/keep; check within 15%.
	want := before / 0.3
	if after < want*0.85 || after > want*1.15 {
		t.Errorf("second moment after sparsify = %v, want ≈%v", after, want)
	}
	if err := SparsifyRows(ds, 0, rng.New(7)); !errors.Is(err, ErrBadShape) {
		t.Error("keep=0 accepted")
	}
}

func TestMaxRowNorm2SqAndGramErrors(t *testing.T) {
	ds := &Dataset{}
	if ds.MaxRowNorm2Sq() != 0 {
		t.Error("empty max row norm nonzero")
	}
	if _, err := ds.Gram(); !errors.Is(err, ErrBadShape) {
		t.Error("Gram on empty dataset accepted")
	}
	ds2 := &Dataset{Rows: []vec.Dense{{3, 4}, {1, 0}}, Labels: []float64{0, 0}}
	if ds2.MaxRowNorm2Sq() != 25 {
		t.Errorf("MaxRowNorm2Sq = %v", ds2.MaxRowNorm2Sq())
	}
}

// TestGramMatchesDenseAddOuter pins that Gram, which skips zero
// coordinates, builds the matrix a dense AddOuter accumulation builds,
// bit for bit: on sparsified data (most products have a zero factor)
// and on rows whose negative entries meet zeros, whose products are −0.
func TestGramMatchesDenseAddOuter(t *testing.T) {
	thinned, err := GenLinear(LinearConfig{Samples: 60, Dim: 10, NoiseStd: 0.1}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := SparsifyRows(thinned, 0.3, rng.New(12)); err != nil {
		t.Fatal(err)
	}
	signed := &Dataset{
		Rows: []vec.Dense{
			{-1, 0, 2},
			{0, -3, 0},
			{math.Copysign(0, -1), 0.5, -4},
			{0, 0, 0},
		},
		Labels: make([]float64, 4),
	}
	for name, ds := range map[string]*Dataset{"sparsified": thinned, "signed zeros": signed} {
		got, err := ds.Gram()
		if err != nil {
			t.Fatal(err)
		}
		want := vec.NewSym(ds.Dim())
		w := 1 / float64(ds.Len())
		for _, r := range ds.Rows {
			if err := want.AddOuter(w, r); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Errorf("%s: entry %d = %v, AddOuter gives %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	ragged := &Dataset{Rows: []vec.Dense{{1, 2}, {1}}, Labels: []float64{0, 0}}
	if _, err := ragged.Gram(); !errors.Is(err, vec.ErrDimMismatch) {
		t.Errorf("ragged rows: err = %v, want ErrDimMismatch", err)
	}
}
