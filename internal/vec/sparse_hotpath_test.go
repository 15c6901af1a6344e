package vec

import (
	"errors"
	"testing"
)

func TestSparseResetAppendReusesBacking(t *testing.T) {
	var s Sparse
	s.Reset(10)
	s.Append(1, 2)
	s.Append(3, 0) // zero dropped
	s.Append(7, -1)
	if s.NNZ() != 2 || s.Dim != 10 {
		t.Fatalf("after appends: %+v", s)
	}
	if !s.IsSorted() {
		t.Error("appended in order but not sorted")
	}
	cap0 := cap(s.Indices)
	s.Reset(5)
	if s.NNZ() != 0 || s.Dim != 5 {
		t.Errorf("reset: %+v", s)
	}
	s.Append(0, 1)
	if cap(s.Indices) != cap0 {
		t.Error("Reset/Append reallocated the backing array")
	}
}

func TestSparseIsSorted(t *testing.T) {
	s := Sparse{Dim: 4, Indices: []int{2, 1}, Values: []float64{1, 1}}
	if s.IsSorted() {
		t.Error("out-of-order indices reported sorted")
	}
	s = Sparse{Dim: 4, Indices: []int{1, 1}, Values: []float64{1, 1}}
	if s.IsSorted() {
		t.Error("duplicate indices reported sorted")
	}
}

func TestSparseCopyFromClone(t *testing.T) {
	src := Sparse{Dim: 6, Indices: []int{0, 4}, Values: []float64{1.5, -2}}
	var dst Sparse
	dst.CopyFrom(src)
	cl := src.Clone()
	src.Values[0] = 99
	if dst.Values[0] != 1.5 || cl.Values[0] != 1.5 {
		t.Error("CopyFrom/Clone alias the source")
	}
	if dst.Dim != 6 || cl.NNZ() != 2 {
		t.Errorf("copy results: dst=%+v clone=%+v", dst, cl)
	}
}

func TestGatherFrom(t *testing.T) {
	x := Dense{10, 20, 30, 40}
	got, err := GatherFrom(nil, x, []int{1, 3})
	if err != nil || len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("GatherFrom = %v, %v", got, err)
	}
	// Reuse without reallocation.
	buf := got
	got, err = GatherFrom(buf, x, []int{0})
	if err != nil || len(got) != 1 || got[0] != 10 {
		t.Fatalf("reuse GatherFrom = %v, %v", got, err)
	}
	// Dimension-mismatch paths.
	if _, err := GatherFrom(nil, x, []int{4}); !errors.Is(err, ErrDimMismatch) {
		t.Error("out-of-range index accepted")
	}
	if _, err := GatherFrom(nil, x, []int{-1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("negative index accepted")
	}
}

func TestSparseApplyDimMismatch(t *testing.T) {
	s := Sparse{Dim: 5, Indices: []int{2}, Values: []float64{1}}
	if err := s.AddScaledInto(NewDense(4), 1); !errors.Is(err, ErrDimMismatch) {
		t.Error("AddScaledInto accepted wrong-dimension destination")
	}
	if _, err := s.DotDense(NewDense(6)); !errors.Is(err, ErrDimMismatch) {
		t.Error("DotDense accepted wrong-dimension operand")
	}
}

// TestFromDenseAllocs: FromDense sizes its two slices exactly, so a row
// with non-zeros costs two allocations and an all-zero row none.
func TestFromDenseAllocs(t *testing.T) {
	row := Dense{0, 1.5, 0, 0, -2, 0, 3}
	var out Sparse
	if n := testing.AllocsPerRun(100, func() { out = FromDense(row) }); n != 2 {
		t.Errorf("non-empty row: %v allocs, want 2", n)
	}
	if out.NNZ() != 3 || cap(out.Indices) != 3 || cap(out.Values) != 3 {
		t.Errorf("FromDense = %+v (caps %d, %d), want 3 entries at exact capacity",
			out, cap(out.Indices), cap(out.Values))
	}
	zero := NewDense(16)
	if n := testing.AllocsPerRun(100, func() { out = FromDense(zero) }); n != 0 {
		t.Errorf("all-zero row: %v allocs, want 0", n)
	}
	if out.NNZ() != 0 || out.Dim != 16 {
		t.Errorf("FromDense(zero) = %+v", out)
	}
}
