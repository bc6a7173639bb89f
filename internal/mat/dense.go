package mat

import (
	"fmt"
	"math"
)

// Dense is a small row-major dense matrix. It backs the LU solver used by
// the ARMA fitter (normal equations are tiny) and by tests that cross-check
// the sparse CG solver against a direct method.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (d *Dense) At(r, c int) float64 { return d.Data[r*d.Cols+c] }

// Set assigns the element at (r, c).
func (d *Dense) Set(r, c int, v float64) { d.Data[r*d.Cols+c] = v }

// Add accumulates v at (r, c).
func (d *Dense) Add(r, c int, v float64) { d.Data[r*d.Cols+c] += v }

// Clone returns a deep copy of d.
func (d *Dense) Clone() *Dense {
	return &Dense{Rows: d.Rows, Cols: d.Cols, Data: append([]float64(nil), d.Data...)}
}

// Reshape resizes d to rows×cols, reusing the backing array when it is
// large enough. The contents are undefined afterwards — callers must
// write every element before reading. It returns d for chaining.
func (d *Dense) Reshape(rows, cols int) *Dense {
	n := rows * cols
	if cap(d.Data) < n {
		d.Data = make([]float64, n)
	}
	d.Data = d.Data[:n]
	d.Rows, d.Cols = rows, cols
	return d
}

// grow returns s resized to n, reusing its backing array when possible.
// Contents are undefined, except that a reallocated slice is zeroed.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FromCSR expands a sparse matrix to dense form (test helper).
func FromCSR(m *CSR) *Dense {
	d := NewDense(m.N, m.N)
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Set(r, m.Col[k], m.Val[k])
		}
	}
	return d
}

// Workspace holds the scratch buffers of the dense solves so callers
// that solve in a loop — the ARMA refit path above all — allocate
// nothing after the first call. The zero value is ready to use; buffers
// grow to the largest problem seen and are reused across calls, so the
// slice a solve returns is only valid until the next solve on the same
// workspace.
type Workspace struct {
	lu   Dense
	perm []int
	x    []float64
	ata  Dense
	atb  []float64
}

// SolveLU solves A·x = b by LU factorization with partial pivoting,
// overwriting neither input. It returns an error for singular systems.
func SolveLU(a *Dense, b []float64) ([]float64, error) {
	var w Workspace
	return w.SolveLU(a, b)
}

// SolveLU is SolveLU on reused buffers; the returned slice aliases the
// workspace and is valid until its next solve.
func (w *Workspace) SolveLU(a *Dense, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: SolveLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveLU rhs length %d != %d", len(b), n)
	}
	lu := w.lu.Reshape(n, n)
	copy(lu.Data, a.Data)
	if cap(w.perm) < n {
		w.perm = make([]int, n)
	}
	perm := w.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > maxAbs {
				maxAbs, pivot = a, r
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("mat: singular matrix at column %d", col)
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				v1, v2 := lu.At(col, c), lu.At(pivot, c)
				lu.Set(col, c, v2)
				lu.Set(pivot, c, v1)
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				lu.Add(r, c, -f*lu.At(col, c))
			}
		}
	}
	// Forward substitution with permuted rhs.
	w.x = grow(w.x, n)
	x := w.x
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
		for c := 0; c < i; c++ {
			x[i] -= lu.At(i, c) * x[c]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for c := i + 1; c < n; c++ {
			x[i] -= lu.At(i, c) * x[c]
		}
		x[i] /= lu.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ‖A·x - b‖₂ via the normal equations AᵀA·x = Aᵀb.
// A must have at least as many rows as columns. The ARMA fitter uses this
// for small, well-conditioned regression problems.
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	var w Workspace
	return w.LeastSquares(a, b)
}

// LeastSquares is LeastSquares on reused buffers; the returned slice
// aliases the workspace and is valid until its next solve.
func (w *Workspace) LeastSquares(a *Dense, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("mat: LeastSquares rhs length %d != rows %d", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("mat: LeastSquares underdetermined (%d rows < %d cols)", a.Rows, a.Cols)
	}
	n := a.Cols
	ata := w.ata.Reshape(n, n)
	w.atb = grow(w.atb, n)
	atb := w.atb
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * a.At(r, j)
			}
			ata.Set(i, j, s)
			ata.Set(j, i, s)
		}
		s := 0.0
		for r := 0; r < a.Rows; r++ {
			s += a.At(r, i) * b[r]
		}
		atb[i] = s
	}
	// Tikhonov damping keeps nearly collinear regressors (flat temperature
	// traces) solvable without meaningfully biasing the fit.
	const ridge = 1e-9
	for i := 0; i < n; i++ {
		ata.Add(i, i, ridge*(1+math.Abs(ata.At(i, i))))
	}
	return w.SolveLU(ata, atb)
}
