// Package mat is a small dense linear-algebra kit: exactly the operations
// the least-squares tomography baseline needs (normal equations with ridge
// regularisation, Cholesky solve, and projected-gradient non-negative least
// squares), implemented from scratch on float64 slices.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	data       []float64
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimensions")
	}
	return &Dense{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// Reshape reconfigures m to rows x cols with every element zero, reusing
// the backing slice when it has capacity — the allocation-free counterpart
// of NewDense for solver scratch that is resized every epoch.
func (m *Dense) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimensions")
	}
	n := rows * cols
	if cap(m.data) < n {
		//dophy:allow hotpathalloc -- scratch grows to the problem's high-water mark, then is reused
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.Rows, m.Cols = rows, cols
}

// growFloats returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//dophy:allow hotpathalloc -- scratch grows to the problem's high-water mark, then is reused
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// Add increments element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.Cols+j] += v }

// MulVec returns A*x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes A*x into dst, which must have length Rows. It lets
// iterative solvers reuse one gradient buffer instead of allocating per
// step.
func (m *Dense) MulVecTo(dst, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %d vs %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// TMulVec returns A^T * y.
func (m *Dense) TMulVec(y []float64) []float64 {
	out := make([]float64, m.Cols)
	m.TMulVecTo(out, y)
	return out
}

// TMulVecTo computes A^T * y into dst, which must have length Cols and be
// zeroed by the caller — the allocation-free variant of TMulVec.
func (m *Dense) TMulVecTo(dst, y []float64) {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("mat: TMulVecTo dimension mismatch %d vs %d", len(y), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: TMulVecTo dst length %d, want %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, a := range row {
			dst[j] += a * yi
		}
	}
}

// Gram returns A^T A (Cols x Cols, symmetric positive semidefinite).
func (m *Dense) Gram() *Dense {
	g := NewDense(m.Cols, m.Cols)
	m.gramInto(g)
	return g
}

// GramInto computes A^T A into g, reshaping it to Cols x Cols and reusing
// its backing storage.
func (m *Dense) GramInto(g *Dense) {
	g.Reshape(m.Cols, m.Cols)
	m.gramInto(g)
}

func (m *Dense) gramInto(g *Dense) {
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		for a := 0; a < m.Cols; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			for b := a; b < m.Cols; b++ {
				g.data[a*m.Cols+b] += ra * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			g.data[b*m.Cols+a] = g.data[a*m.Cols+b]
		}
	}
}

// GramUpdateRows applies a rank-k update to g = A^T A in place for a
// change to k rows of A: every row of sub has its outer-product
// contribution subtracted (the rows' old contents) and every row of add
// has its contribution added (their new contents). sub and add must have
// g.Cols columns; either may have zero rows. For the 0/1 incidence
// matrices tomography builds, every Gram entry is an exact small integer,
// so the updated Gram is bitwise-identical to one rebuilt from scratch.
//
//dophy:hotpath
func (g *Dense) GramUpdateRows(sub, add *Dense) {
	if g.Rows != g.Cols {
		panic(fmt.Sprintf("mat: GramUpdateRows on non-square %dx%d", g.Rows, g.Cols))
	}
	if sub.Cols != g.Cols || add.Cols != g.Cols {
		panic(fmt.Sprintf("mat: GramUpdateRows column mismatch %d/%d vs %d", sub.Cols, add.Cols, g.Cols))
	}
	g.gramRankUpdate(sub, -1)
	g.gramRankUpdate(add, +1)
	// Mirror the upper triangle, matching gramInto's final layout pass.
	for a := 0; a < g.Cols; a++ {
		for b := a + 1; b < g.Cols; b++ {
			g.data[b*g.Cols+a] = g.data[a*g.Cols+b]
		}
	}
}

// gramRankUpdate accumulates sign * (rows^T rows) into g's upper triangle,
// mirroring gramInto's traversal so skip-zero behaviour matches.
func (g *Dense) gramRankUpdate(rows *Dense, sign float64) {
	n := g.Cols
	for i := 0; i < rows.Rows; i++ {
		row := rows.data[i*n : (i+1)*n]
		for a := 0; a < n; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			for b := a; b < n; b++ {
				g.data[a*n+b] += sign * (ra * row[b])
			}
		}
	}
}

// ErrNotSPD reports a Cholesky failure (matrix not positive definite).
var ErrNotSPD = errors.New("mat: matrix not symmetric positive definite")

// SPDSolver solves symmetric positive-definite systems repeatedly, reusing
// its factorisation scratch across Solve calls — the allocation-free
// counterpart of SolveSPD for per-epoch callers. The zero value is ready
// to use.
type SPDSolver struct {
	l, y, x []float64
}

// Solve solves A x = b by Cholesky decomposition without modifying A. The
// returned slice aliases the solver's scratch and is valid until the next
// Solve call. The arithmetic matches SolveSPD exactly.
//
//dophy:hotpath
func (s *SPDSolver) Solve(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("mat: SPDSolver dimension mismatch")
	}
	// L lower-triangular with A = L L^T.
	s.l = growFloats(s.l, n*n)
	l := s.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotSPD
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward solve L y = b.
	s.y = growFloats(s.y, n)
	y := s.y
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Back solve L^T x = y.
	s.x = growFloats(s.x, n)
	x := s.x
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x, nil
}

// SolveSPD solves A x = b for symmetric positive-definite A by Cholesky
// decomposition. A is not modified.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("mat: SolveSPD dimension mismatch")
	}
	// L lower-triangular with A = L L^T.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotSPD
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward solve L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Back solve L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x, nil
}

// RidgeLeastSquares solves min ||A x - b||^2 + ridge ||x||^2 via the normal
// equations. ridge > 0 guarantees solvability even for rank-deficient A.
func RidgeLeastSquares(a *Dense, b []float64, ridge float64) ([]float64, error) {
	if ridge <= 0 {
		return nil, errors.New("mat: ridge must be positive")
	}
	g := a.Gram()
	for i := 0; i < g.Rows; i++ {
		g.Add(i, i, ridge)
	}
	return SolveSPD(g, a.TMulVec(b))
}

// NNLS solves min ||A x - b||^2 subject to x >= 0 by projected gradient
// descent with a step from the Gram matrix's row-sum bound. It converges
// linearly and is robust on the small ill-conditioned systems tomography
// produces. iters bounds the work; tol stops early on stagnation. The
// caller owns the returned slice; per-epoch callers should hold an
// NNLSSolver instead and reuse its scratch.
func NNLS(a *Dense, b []float64, iters int, tol float64) []float64 {
	var s NNLSSolver
	return s.Solve(a, b, iters, tol)
}

// NNLSSolver runs NNLS repeatedly over same-shaped or differently-shaped
// systems, reusing its Gram matrix and vector scratch across Solve calls.
// The zero value is ready to use; a warm start is only meaningful once a
// full solve has populated the carried active set.
type NNLSSolver struct {
	g    Dense
	x    []float64
	atb  []float64
	grad []float64

	// Warm-start scratch: the active set carried across epochs and the
	// Cholesky workspace for the Newton correction on its complement.
	free []int
	gff  Dense
	bf   []float64
	spd  SPDSolver
}

// Solve is NNLS with reusable scratch. The returned slice aliases the
// solver's scratch and is valid until the next Solve call.
func (s *NNLSSolver) Solve(a *Dense, b []float64, iters int, tol float64) []float64 {
	a.GramInto(&s.g)
	s.atb = growFloats(s.atb, a.Cols)
	a.TMulVecTo(s.atb, b)
	return s.SolveWarm(&s.g, s.atb, nil, iters, tol)
}

// SolveWarm runs the projected-gradient NNLS iteration over a
// caller-assembled system: g must be A^T A (square, Cols x Cols) and atb
// must be A^T b. A non-nil x0 seeds the iteration — the warm start an
// incremental caller uses to resume from the previous epoch's solution.
// The seed's zero pattern is treated as the carried-over active set: a
// Newton correction solves the system exactly on the free (positive)
// coordinates by Cholesky before the projected-gradient polish, so when
// the active set is stable across epochs the polish stagnates almost
// immediately. A nil x0 starts from zero with no correction, making
// SolveWarm over a freshly assembled system bitwise-identical to Solve.
// The returned slice aliases the solver's scratch and is valid until the
// next solve.
//
//dophy:hotpath
func (s *NNLSSolver) SolveWarm(g *Dense, atb, x0 []float64, iters int, tol float64) []float64 {
	if g.Rows != g.Cols || len(atb) != g.Cols {
		panic(fmt.Sprintf("mat: SolveWarm dimension mismatch %dx%d vs %d", g.Rows, g.Cols, len(atb)))
	}
	if x0 != nil && len(x0) != g.Cols {
		panic(fmt.Sprintf("mat: SolveWarm x0 length %d, want %d", len(x0), g.Cols))
	}
	// Lipschitz bound: max row sum of |G| >= spectral norm.
	lip := 0.0
	for i := 0; i < g.Rows; i++ {
		sum := 0.0
		for j := 0; j < g.Cols; j++ {
			sum += math.Abs(g.At(i, j))
		}
		if sum > lip {
			lip = sum
		}
	}
	s.x = growFloats(s.x, g.Cols)
	x := s.x
	if x0 != nil {
		copy(x, x0)
		s.newtonCorrect(g, atb, x)
	}
	if lip == 0 {
		return x // A is zero: any x is optimal, keep the seed
	}
	step := 1 / lip
	s.grad = growFloats(s.grad, g.Rows)
	grad := s.grad
	for it := 0; it < iters; it++ {
		// grad = G x - A^T b
		g.MulVecTo(grad, x)
		moved := 0.0
		for j := range x {
			nx := x[j] - step*(grad[j]-atb[j])
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[j])
			x[j] = nx
		}
		if moved < tol {
			break
		}
	}
	return x
}

// newtonCorrect is the active-set phase of a warm start: taking x's
// positive coordinates as the initial free set F, it solves G_FF z =
// atb_F by Cholesky, clamps non-positive components out of F, and then
// checks the KKT conditions on the active (zero) coordinates — any with a
// strictly descending reduced gradient re-enters F and the block is
// re-solved. The loop is bounded: each round is one Cholesky solve, far
// cheaper than the thousands of projected-gradient iterations it takes a
// coordinate to enter the support from zero. When the rounds reach a KKT
// point — the common case when the active set moved by a handful of
// coordinates between epochs — the caller's polish stops at its first
// stagnation check. The correction is best-effort: on a non-SPD free
// block or when the round budget runs out, x is left at the last
// feasible iterate and the polish runs from there unaided.
//
//dophy:hotpath
func (s *NNLSSolver) newtonCorrect(g *Dense, atb, x []float64) {
	s.free = s.free[:0]
	for j := range x {
		if x[j] > 0 {
			s.free = append(s.free, j)
		}
	}
	const maxRounds = 16
	for round := 0; round < maxRounds; round++ {
		// Solve the free block, dropping clamped coordinates until the
		// block's solution is strictly positive (inner clamp loop).
		for inner := 0; inner < maxRounds && len(s.free) > 0; inner++ {
			nf := len(s.free)
			s.gff.Reshape(nf, nf)
			s.bf = growFloats(s.bf, nf)
			for a, ja := range s.free {
				for b, jb := range s.free {
					s.gff.Set(a, b, g.At(ja, jb))
				}
				s.bf[a] = atb[ja]
			}
			z, err := s.spd.Solve(&s.gff, s.bf)
			if err != nil {
				return
			}
			kept := s.free[:0]
			clamped := false
			for i, j := range s.free {
				if z[i] > 0 {
					x[j] = z[i]
					kept = append(kept, j)
				} else {
					x[j] = 0
					clamped = true
				}
			}
			s.free = kept
			if !clamped {
				break
			}
		}
		// KKT check: an active coordinate with a strictly descending
		// reduced gradient (atb_j - (Gx)_j > 0) must join the free set.
		s.grad = growFloats(s.grad, g.Rows)
		g.MulVecTo(s.grad, x)
		entered := false
		for j := range x {
			if x[j] > 0 {
				continue
			}
			if w := atb[j] - s.grad[j]; w > 1e-12*(1+math.Abs(atb[j])) {
				s.free = append(s.free, j)
				entered = true
			}
		}
		if !entered {
			return
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }
