package grad

import (
	"asyncsgd/internal/data"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// SparseOracle is the optional sparse-gradient capability: oracles whose
// stochastic gradients read and touch few coordinates expose them as
// index/value lists so runtimes can do O(nnz) work per iteration instead
// of O(d). The protocol is two-phase so it fits both runtimes:
//
//  1. PlanSparse draws the iteration's sampling randomness and announces
//     the read support — the coordinates the gradient depends on. The
//     real-thread runtime then loads exactly those coordinates from the
//     atomic model; the simulator issues exactly those shm read steps.
//  2. GradSparseAt evaluates the planned gradient given the support
//     values and appends its non-zeros to a caller-owned vec.Sparse.
//
// Both phases are allocation-free after warm-up: returned slices alias
// oracle-owned scratch that is reused across iterations (and therefore
// must not be retained across calls), and dst is Reset/Append-ed in
// place.
//
// The sparse and dense paths consume the generator in different orders,
// so they produce different (equally distributed) gradient streams; a
// run is deterministic for a fixed seed and a fixed path.
type SparseOracle interface {
	Oracle

	// PlanSparse draws the randomness selecting the next stochastic
	// gradient and returns its read support as strictly increasing
	// coordinate indices. The slice is owned by the oracle and valid only
	// until the next PlanSparse call. An empty support means the gradient
	// is identically zero this iteration.
	PlanSparse(r *rng.Rand) []int

	// GradSparseAt computes the gradient planned by the immediately
	// preceding PlanSparse call, given vals[k] = x[support[k]]. It resets
	// dst and appends the non-zero entries in increasing index order
	// (every non-zero index is contained in the announced support).
	GradSparseAt(dst *vec.Sparse, vals []float64, r *rng.Rand)
}

// AsSparse returns o's sparse capability, if it has one.
func AsSparse(o Oracle) (SparseOracle, bool) {
	so, ok := o.(SparseOracle)
	return so, ok
}

// GradSparseVia runs the full two-phase protocol against a dense model
// vector: plan, gather the support values, evaluate. It is the reference
// implementation runtimes are measured against, and the convenience for
// sequential callers. scratch is reused for the gathered values.
func GradSparseVia(dst *vec.Sparse, o SparseOracle, x vec.Dense, r *rng.Rand, scratch []float64) ([]float64, error) {
	support := o.PlanSparse(r)
	scratch, err := vec.GatherFrom(scratch, x, support)
	if err != nil {
		return scratch, err
	}
	o.GradSparseAt(dst, scratch, r)
	return scratch, nil
}

// coordOracle is the unexported separability capability: the j-th entry
// of the stochastic gradient depends on x_j alone. Quadratic and Quad1D
// implement it, which lets SingleCoordinate plan a one-coordinate read
// support instead of falling back to a full view.
type coordOracle interface {
	gradCoord(j int, xj float64, r *rng.Rand) float64
}

// --- SingleCoordinate sparse capability ----------------------------------

var _ SparseOracle = (*SingleCoordinate)(nil)

// PlanSparse implements SparseOracle: it draws the coordinate j of the
// single non-zero entry. When the base oracle is separable the read
// support is {j}; otherwise the full view is required (the write support
// is still a single coordinate).
func (s *SingleCoordinate) PlanSparse(r *rng.Rand) []int {
	d := s.Base.Dim()
	s.planJ = r.Intn(d)
	if _, ok := s.Base.(coordOracle); ok {
		s.support = append(s.support[:0], s.planJ)
		return s.support
	}
	if len(s.full) != d {
		s.full = make([]int, d)
		for i := range s.full {
			s.full[i] = i
		}
	}
	return s.full
}

// GradSparseAt implements SparseOracle.
func (s *SingleCoordinate) GradSparseAt(dst *vec.Sparse, vals []float64, r *rng.Rand) {
	d := s.Base.Dim()
	dst.Reset(d)
	if co, ok := s.Base.(coordOracle); ok {
		dst.Append(s.planJ, float64(d)*co.gradCoord(s.planJ, vals[0], r))
		return
	}
	// Dense fallback: the base gradient needs the whole view.
	if len(s.xbuf) != d {
		s.xbuf = vec.NewDense(d)
	}
	copy(s.xbuf, vals)
	s.Base.Grad(s.g, s.xbuf, r)
	dst.Append(s.planJ, float64(d)*s.g[s.planJ])
}

// --- SparseLeastSquares ---------------------------------------------------

// SparseLeastSquares is least squares over sparse feature rows:
//
//	f(x) = (1/2m) Σ_i (a_iᵀx − b_i)²,  a_i sparse.
//
// The classic SGD oracle g̃(x) = (a_iᵀx − b_i)·a_i then reads and writes
// exactly the support of the sampled row — the motivating regime of the
// Hogwild literature and the workload where the sparse pipeline's O(nnz)
// atomic ops beat the dense path's O(d) scan.
//
// Constants are derived exactly as for the dense LeastSquares oracle
// (from the Gram matrix and the normal-equations solution); construction
// fails on non-finite data or a singular Gram matrix.
type SparseLeastSquares struct {
	rows   []vec.Sparse
	labels []float64
	d      int
	xstar  vec.Dense
	cst    Constants // C is filled in from c
	c      *strongConvexity

	planI int
}

var _ Oracle = (*SparseLeastSquares)(nil)
var _ SparseOracle = (*SparseLeastSquares)(nil)

// NewSparseLeastSquares builds the oracle from a dataset (typically one
// whose rows were thinned with data.SparsifyRows), storing rows in
// coordinate form. r0 is the M² ball radius. The Gram matrix is built
// from the stored rows, so its cost is Σ nnz_i² rather than m·d², and the
// oracle keeps no reference to ds.Rows.
func NewSparseLeastSquares(ds *data.Dataset, r0 float64) (*SparseLeastSquares, error) {
	if err := checkLeastSquaresData(ds, r0); err != nil {
		return nil, err
	}
	d := ds.Dim()
	rows := make([]vec.Sparse, ds.Len())
	for i, row := range ds.Rows {
		rows[i] = vec.FromDense(row)
	}
	g, err := sparseGram(d, rows)
	if err != nil {
		return nil, err
	}
	c := &strongConvexity{gram: func() *vec.Sym {
		g, _ := sparseGram(d, rows) // succeeded once on the same rows
		return g
	}}
	xstar, cst, err := fitLeastSquares(ds, g, r0, c)
	if err != nil {
		return nil, err
	}
	return &SparseLeastSquares{
		rows:   rows,
		labels: ds.Labels,
		d:      d,
		xstar:  xstar,
		cst:    cst,
		c:      c,
	}, nil
}

// sparseGram is data.Dataset.Gram over coordinate-form rows; both skip
// zero coordinates, so the two produce the same bits.
func sparseGram(d int, rows []vec.Sparse) (*vec.Sym, error) {
	g := vec.NewSym(d)
	w := 1 / float64(len(rows))
	for _, r := range rows {
		if err := g.AddOuterSparse(w, r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Dim implements Oracle.
func (s *SparseLeastSquares) Dim() int { return s.d }

// AvgNNZ returns the mean number of non-zeros per row — the nnz of a
// typical stochastic gradient.
func (s *SparseLeastSquares) AvgNNZ() float64 {
	total := 0
	for _, row := range s.rows {
		total += row.NNZ()
	}
	return float64(total) / float64(len(s.rows))
}

// Value implements Oracle.
func (s *SparseLeastSquares) Value(x vec.Dense) float64 {
	var sum float64
	for i, row := range s.rows {
		dot, _ := row.DotDense(x)
		r := dot - s.labels[i]
		sum += r * r
	}
	return sum / (2 * float64(len(s.rows)))
}

// FullGrad implements Oracle.
func (s *SparseLeastSquares) FullGrad(dst, x vec.Dense) {
	dst.Zero()
	w := 1 / float64(len(s.rows))
	for i, row := range s.rows {
		dot, _ := row.DotDense(x)
		_ = row.AddScaledInto(dst, w*(dot-s.labels[i]))
	}
}

// Grad implements Oracle (the dense-destination path used by non-sparse
// runtimes; it still only scatters over the sampled row's support).
func (s *SparseLeastSquares) Grad(dst, x vec.Dense, r *rng.Rand) {
	i := r.Intn(len(s.rows))
	row := s.rows[i]
	dot, _ := row.DotDense(x)
	dst.Zero()
	_ = row.AddScaledInto(dst, dot-s.labels[i])
}

// PlanSparse implements SparseOracle: sample a row; its support is the
// gradient's read and write support.
func (s *SparseLeastSquares) PlanSparse(r *rng.Rand) []int {
	s.planI = r.Intn(len(s.rows))
	return s.rows[s.planI].Indices
}

// GradSparseAt implements SparseOracle.
func (s *SparseLeastSquares) GradSparseAt(dst *vec.Sparse, vals []float64, _ *rng.Rand) {
	row := s.rows[s.planI]
	var dot float64
	for k, v := range row.Values {
		dot += v * vals[k]
	}
	res := dot - s.labels[s.planI]
	dst.Reset(s.d)
	for k, i := range row.Indices {
		dst.Append(i, res*row.Values[k])
	}
}

// Optimum implements Oracle.
func (s *SparseLeastSquares) Optimum() vec.Dense { return s.xstar.Clone() }

// Constants implements Oracle. The first call computes c (see
// strongConvexity).
func (s *SparseLeastSquares) Constants() Constants {
	cst := s.cst
	cst.C = s.c.value()
	return cst
}

// CloneFor implements Oracle. Rows and labels are immutable and shared;
// the plan state is per-clone.
func (s *SparseLeastSquares) CloneFor(int) Oracle {
	cp := *s
	cp.xstar = s.xstar.Clone()
	cp.planI = 0
	return &cp
}

// --- MatrixFactorization sparse capability --------------------------------

var _ SparseOracle = (*MatrixFactorization)(nil)

// PlanSparse implements SparseOracle: sample an observed entry (i, j);
// the gradient reads and writes exactly the 2r coordinates of U_i and
// V_j (U rows precede V rows in the parameter layout, so the support is
// increasing).
func (mf *MatrixFactorization) PlanSparse(r *rng.Rand) []int {
	mf.planK = r.Intn(len(mf.vals))
	ui := mf.rows[mf.planK] * mf.r
	vj := (mf.m + mf.cols[mf.planK]) * mf.r
	mf.support = mf.support[:0]
	for k := 0; k < mf.r; k++ {
		mf.support = append(mf.support, ui+k)
	}
	for k := 0; k < mf.r; k++ {
		mf.support = append(mf.support, vj+k)
	}
	return mf.support
}

// GradSparseAt implements SparseOracle: vals holds (U_i, V_j).
func (mf *MatrixFactorization) GradSparseAt(dst *vec.Sparse, vals []float64, _ *rng.Rand) {
	u := vals[:mf.r]
	v := vals[mf.r:]
	var e float64
	for k := 0; k < mf.r; k++ {
		e += u[k] * v[k]
	}
	e -= mf.vals[mf.planK]
	dst.Reset(mf.Dim())
	ui := mf.rows[mf.planK] * mf.r
	vj := (mf.m + mf.cols[mf.planK]) * mf.r
	for k := 0; k < mf.r; k++ {
		dst.Append(ui+k, e*v[k])
	}
	for k := 0; k < mf.r; k++ {
		dst.Append(vj+k, e*u[k])
	}
}
