package vec

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric d×d matrix stored in full: the Gram matrix of
// data-defined objectives such as least squares. Oracles check it for
// positive definiteness (PositiveDefiniteAbove), solve their normal
// equations on it, and compute strong convexity c = λmin from it
// (Eigenvalues) when a caller asks.
type Sym struct {
	N    int
	Data []float64 // row-major, length N*N
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 { return s.Data[i*s.N+j] }

// Set sets elements (i, j) and (j, i).
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// AddOuter performs s += w·x·xᵀ (rank-one update), used to accumulate Gram
// matrices.
func (s *Sym) AddOuter(w float64, x Dense) error {
	if len(x) != s.N {
		return fmt.Errorf("outer: dim %d vs %d: %w", len(x), s.N, ErrDimMismatch)
	}
	for i := 0; i < s.N; i++ {
		xi := w * x[i]
		for j := 0; j < s.N; j++ {
			s.Data[i*s.N+j] += xi * x[j]
		}
	}
	return nil
}

// AddOuterSparse performs s += w·x·xᵀ over x's stored entries only. Each
// entry receives the same products in the same order as AddOuter on
// x.ToDense(), minus the ones with a zero factor. Those products are ±0,
// and adding ±0 never changes a sum that starts at +0: round-to-nearest
// yields −0 only from (−0)+(−0). So on a matrix without −0 entries (NewSym
// starts at +0) the result is bit-identical to AddOuter's for finite x.
func (s *Sym) AddOuterSparse(w float64, x Sparse) error {
	if x.Dim != s.N {
		return fmt.Errorf("outer: dim %d vs %d: %w", x.Dim, s.N, ErrDimMismatch)
	}
	for k, i := range x.Indices {
		xi := w * x.Values[k]
		row := s.Data[i*s.N : (i+1)*s.N]
		for l, j := range x.Indices {
			row[j] += xi * x.Values[l]
		}
	}
	return nil
}

// PositiveDefiniteAbove reports whether s − shift·I is positive definite,
// that is whether λmin(s) > shift, by attempting its Cholesky
// factorisation: O(d³/6) against the O(d³) per sweep of Eigenvalues. A
// non-positive or NaN pivot rejects.
func (s *Sym) PositiveDefiniteAbove(shift float64) bool {
	n := s.N
	l := make([]float64, n*n) // lower factor, row-major
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		for i := j; i < n; i++ {
			li := l[i*n : i*n+j]
			sum := s.Data[i*n+j]
			if i == j {
				sum -= shift
			}
			for k, v := range lj {
				sum -= li[k] * v
			}
			if i == j {
				if !(sum > 0) {
					return false
				}
				l[j*n+j] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return true
}

// MulVec computes dst = s·x.
func (s *Sym) MulVec(dst, x Dense) error {
	if len(x) != s.N || len(dst) != s.N {
		return fmt.Errorf("mulvec: dims %d,%d vs %d: %w", len(dst), len(x), s.N, ErrDimMismatch)
	}
	for i := 0; i < s.N; i++ {
		var acc float64
		row := s.Data[i*s.N : (i+1)*s.N]
		for j, v := range x {
			acc += row[j] * v
		}
		dst[i] = acc
	}
	return nil
}

// Eigenvalues returns all eigenvalues of s in ascending order, computed by
// the cyclic Jacobi rotation method. The method is robust for the small
// dimensions used here (d ≤ a few hundred). maxSweeps bounds the number of
// full sweeps as a safety cap: cyclic Jacobi converges quadratically, so
// the ~1e-12 stopping rule is met in far fewer.
func (s *Sym) Eigenvalues() ([]float64, error) {
	n := s.N
	a := make([]float64, len(s.Data))
	copy(a, s.Data)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * a[i*n+j] * a[i*n+j]
			}
		}
		if math.Sqrt(off) < 1e-13*(1+frob(a)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a[p*n+p], a[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) /
					(math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// Apply rotation G(p,q,θ) on both sides.
				for k := 0; k < n; k++ {
					akp, akq := a[k*n+p], a[k*n+q]
					a[k*n+p] = c*akp - sn*akq
					a[k*n+q] = sn*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p*n+k], a[q*n+k]
					a[p*n+k] = c*apk - sn*aqk
					a[q*n+k] = sn*apk + c*aqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a[i*n+i]
	}
	sortFloats(eig)
	return eig, nil
}

// ExtremeEigenvalues returns (λmin, λmax).
func (s *Sym) ExtremeEigenvalues() (lo, hi float64, err error) {
	eig, err := s.Eigenvalues()
	if err != nil {
		return 0, 0, err
	}
	return eig[0], eig[len(eig)-1], nil
}

func frob(a []float64) float64 {
	var f float64
	for _, v := range a {
		f += v * v
	}
	return math.Sqrt(f)
}

func sortFloats(xs []float64) {
	// Insertion sort: eigenvalue vectors are short.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
