package mat

import (
	"errors"
	"fmt"
)

// ErrNotPositiveDefinite is returned by Factorize when a pivot is not
// strictly positive — the input is not SPD and the factorization (valid
// only for the positive definite RC-network systems this package targets)
// cannot continue.
var ErrNotPositiveDefinite = errors.New("mat: matrix not positive definite")

// LDLSymbolic is the reusable symbolic analysis of a sparse LDLᵀ
// factorization: the fill-reducing permutation, the elimination tree and
// the fill pattern of L, all of which depend only on the sparsity
// structure. One analysis serves every numeric factorization of matrices
// sharing that structure (the thermal solver re-factors the same Laplacian
// whenever the coolant flow setting or the time step changes).
//
// The analysis holds no scratch: Factorize and Solve run in an
// LDLWorkspace owned by the caller, so a finished analysis is immutable
// and safe for concurrent use by any number of goroutines. The one
// exception is SetSupernodal, which changes the kernel family and must
// only be called on an analysis nobody else is using.
type LDLSymbolic struct {
	n    int
	nnzA int // stored entries of the analyzed matrix (structure check)

	perm []int // perm[k] = original index of the node eliminated k-th
	pinv []int // pinv[perm[k]] = k

	// Upper triangle of the permuted matrix PAPᵀ in compressed-column
	// form: column k holds rows i ≤ k. csrc maps each entry to its index
	// in the Val array of the original CSR, so numeric factorization
	// reads fresh values without re-permuting the matrix.
	cp, ci, csrc []int

	parent []int   // elimination tree
	lp     []int   // column pointers of L (len n+1)
	li     []int32 // row indices of L (len nnz(L)); filled by AnalyzeLDL
	// (int32 halves the index traffic of the two solve sweeps, the
	// per-tick hot path; 2³¹ nodes is far beyond any grid here)

	// Supernode partition and padded panel structure (immutable);
	// superOn selects the dense-panel kernels.
	super   *superState
	superOn bool
}

// LDLWorkspace is the mutable scratch of Factorize, Solve and SolveBatch.
// The zero value is ready: buffers grow on first use to the size the
// analysis needs and are reused after, so steady-state solves allocate
// nothing. A workspace may serve any number of factors (of any analysis)
// but only one goroutine at a time.
type LDLWorkspace struct {
	y       []float64
	pattern []int
	flag    []int
	lnz     []int
	w       []float64 // Solve permuted work vector
	wb      []float64 // SolveBatch panel, grown to n·k on demand
	ssmap   []int32   // supernodal factorize: global row → panel-local row
	sidx    []int32   // supernodal factorize: per-update local row indices
	supd    []float64 // supernodal factorize: dense Schur-update buffer
	sacc    []float64 // supernodal solve: per-descendant accumulator
	stmp    []float64 // supernodal solve: below-row gather buffer
	sbacc   []float64 // supernodal batch solve accumulator, grown on demand
	sbtmp   []float64 // supernodal batch below-row gather, grown on demand
}

// LDLFactor holds the numeric factors of one matrix: PAPᵀ = L·D·Lᵀ with
// unit lower-triangular L (pattern in the LDLSymbolic) and positive
// diagonal D. A factor built by NewFactor is never written again, so it
// is safe for concurrent read-only use: any number of LDLNumeric handles,
// each with its own workspace, may solve through it at once.
type LDLFactor struct {
	s    *LDLSymbolic
	lx   []float64
	d    []float64
	invd []float64
	// super records the layout lx was factorized in (dense supernodal
	// panels vs scalar columns); Solve dispatches on it, and Factorize
	// reallocates when the symbolic mode has changed since.
	super bool
}

// LDLNumeric is a handle on numeric factors plus the workspace its solves
// run in. Handles are cheap values: Bind makes another handle over the
// same factors for another user.
type LDLNumeric struct {
	*LDLFactor
	ws *LDLWorkspace
}

// Bind returns a handle that solves through f in ws. The factors are
// shared, not copied.
func (f *LDLFactor) Bind(ws *LDLWorkspace) LDLNumeric {
	return LDLNumeric{LDLFactor: f, ws: ws}
}

// N returns the system dimension.
func (s *LDLSymbolic) N() int { return s.n }

// NNZL returns the stored entry count of the L factor (fill diagnostics;
// excludes the unit diagonal and D).
func (s *LDLSymbolic) NNZL() int { return s.lp[s.n] }

// AnalyzeLDL performs the symbolic analysis of a: it computes the
// fill-reducing ordering, the elimination tree of the permuted matrix and
// the exact per-column fill counts, and allocates the pattern of L. The
// matrix must be structurally symmetric with a full diagonal (the
// assembled RC Laplacians are); SPD-ness itself is only detected during
// Factorize.
func AnalyzeLDL(a *CSR, ord Ordering) (*LDLSymbolic, error) {
	n := a.N
	s := &LDLSymbolic{
		n:    n,
		nnzA: a.NNZ(),
		perm: ord.Permutation(a),
	}
	if len(s.perm) != n {
		return nil, fmt.Errorf("mat: ordering produced %d of %d nodes", len(s.perm), n)
	}
	s.pinv = make([]int, n)
	for k, v := range s.perm {
		s.pinv[v] = k
	}

	// Build the upper triangle of PAPᵀ by columns. Each stored symmetric
	// pair (r,c)/(c,r) contributes exactly one entry (the one whose
	// permuted row is ≤ its permuted column), the diagonal once.
	s.cp = make([]int, n+1)
	for r := 0; r < n; r++ {
		pr := s.pinv[r]
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if pc := s.pinv[a.Col[k]]; pr <= pc {
				s.cp[pc+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		s.cp[k+1] += s.cp[k]
	}
	nnzU := s.cp[n]
	s.ci = make([]int, nnzU)
	s.csrc = make([]int, nnzU)
	next := make([]int, n)
	copy(next, s.cp[:n])
	for r := 0; r < n; r++ {
		pr := s.pinv[r]
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if pc := s.pinv[a.Col[k]]; pr <= pc {
				s.ci[next[pc]] = pr
				s.csrc[next[pc]] = k
				next[pc]++
			}
		}
	}

	// Elimination tree and exact column counts of L (up-looking symbolic
	// pass): row k's pattern is the union of the etree paths from the
	// above-diagonal entries of column k up to k.
	s.parent = make([]int, n)
	flag := make([]int, n)
	lnz := make([]int, n)
	for k := 0; k < n; k++ {
		s.parent[k] = -1
		flag[k] = k
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			for i := s.ci[p]; flag[i] != k; i = s.parent[i] {
				if s.parent[i] < 0 {
					s.parent[i] = k
				}
				lnz[i]++
				flag[i] = k
			}
		}
	}
	s.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		s.lp[k+1] = s.lp[k] + lnz[k]
	}

	// Fill the row indices of L with a second reach pass. Row k of L
	// appends k to every column i in its pattern, and successive k are
	// appended in ascending order — exactly the positions the up-looking
	// numeric factorization writes — so the pattern is immutable from
	// here on. lnz doubles as the per-column cursor.
	s.li = make([]int32, s.lp[n])
	clear(lnz)
	for k := 0; k < n; k++ {
		flag[k] = k
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			for i := s.ci[p]; flag[i] != k; i = s.parent[i] {
				s.li[s.lp[i]+lnz[i]] = int32(k)
				lnz[i]++
				flag[i] = k
			}
		}
	}

	// Supernode partition (dense-panel layer): computed once here from
	// the finished etree/pattern. The dense-panel kernels are selected by
	// default exactly when the partition is profitable; SetSupernodal
	// overrides it.
	s.buildSupernodes(maxSuperWidth, true)
	s.superOn = s.SupernodalProfitable()
	return s, nil
}

// Factorize computes the numeric LDLᵀ factors of a, which must have
// exactly the sparsity structure that was analyzed (the thermal solver
// rewrites values — the diagonal — on the fixed-structure system matrix).
// f is reused when non-nil: its factors are overwritten in place (so f
// must not be shared with other users) and its workspace serves as
// scratch. Pass nil for a fresh handle with its own workspace. Returns
// ErrNotPositiveDefinite (wrapped) when a pivot is ≤ 0.
func (s *LDLSymbolic) Factorize(a *CSR, f *LDLNumeric) (*LDLNumeric, error) {
	if err := s.checkStructure(a); err != nil {
		return nil, err
	}
	if f == nil {
		f = &LDLNumeric{ws: new(LDLWorkspace)}
	}
	if f.LDLFactor == nil || f.s != s || f.super != s.superOn {
		f.LDLFactor = s.newFactor()
	}
	if err := s.factorize(a, f.LDLFactor, f.ws); err != nil {
		return nil, err
	}
	return f, nil
}

// NewFactor computes fresh numeric LDLᵀ factors of a (see Factorize),
// using ws as scratch. The result is never written again: it is safe to
// share read-only and to solve through concurrently, each user binding it
// to its own workspace (LDLFactor.Bind).
func (s *LDLSymbolic) NewFactor(a *CSR, ws *LDLWorkspace) (*LDLFactor, error) {
	if err := s.checkStructure(a); err != nil {
		return nil, err
	}
	f := s.newFactor()
	if err := s.factorize(a, f, ws); err != nil {
		return nil, err
	}
	return f, nil
}

// checkStructure rejects a matrix whose dimension or stored-entry count
// differs from the analyzed one.
func (s *LDLSymbolic) checkStructure(a *CSR) error {
	if a.N != s.n || a.NNZ() != s.nnzA {
		return fmt.Errorf("mat: Factorize structure mismatch: got %d×%d nnz %d, analyzed %d×%d nnz %d",
			a.N, a.N, a.NNZ(), s.n, s.n, s.nnzA)
	}
	return nil
}

// newFactor allocates factor storage in the current kernel layout.
func (s *LDLSymbolic) newFactor() *LDLFactor {
	nx := s.lp[s.n]
	if s.superOn {
		nx = s.super.panelNNZ
	}
	return &LDLFactor{
		s:     s,
		lx:    make([]float64, nx),
		d:     make([]float64, s.n),
		invd:  make([]float64, s.n),
		super: s.superOn,
	}
}

// factorize writes the numeric factors of a into f (laid out for the
// layout it was allocated in) with ws as scratch. The structure of a has
// been checked.
func (s *LDLSymbolic) factorize(a *CSR, f *LDLFactor, ws *LDLWorkspace) error {
	if f.super {
		return s.factorizeSuper(a, f, ws)
	}
	n := s.n
	ws.y = grow(ws.y, n)
	ws.pattern = grow(ws.pattern, n)
	ws.flag = grow(ws.flag, n)
	ws.lnz = grow(ws.lnz, n)
	y, pattern, flag, lnz := ws.y, ws.pattern, ws.flag, ws.lnz
	for k := 0; k < n; k++ {
		// Pattern of row k of L via elimination-tree reach, values of
		// column k of the permuted upper triangle scattered into y.
		top := n
		flag[k] = k
		lnz[k] = 0
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			i := s.ci[p]
			y[i] += a.Val[s.csrc[p]]
			ln := 0
			for ; flag[i] != k; i = s.parent[i] {
				pattern[ln] = i
				ln++
				flag[i] = k
			}
			for ln > 0 {
				ln--
				top--
				pattern[top] = pattern[ln]
			}
		}
		// Sparse triangular solve across the pattern, in elimination
		// order (the stack holds it topologically sorted).
		dk := y[k]
		y[k] = 0
		for t := top; t < n; t++ {
			i := pattern[t]
			yi := y[i]
			y[i] = 0
			lki := yi * f.invd[i]
			p2 := s.lp[i] + lnz[i]
			for p := s.lp[i]; p < p2; p++ {
				y[s.li[p]] -= f.lx[p] * yi
			}
			f.lx[p2] = lki
			lnz[i]++
			dk -= lki * yi
		}
		if dk <= 0 {
			// Leave y clean for the workspace's next factorization.
			clear(y)
			return fmt.Errorf("%w: pivot %g at permuted index %d", ErrNotPositiveDefinite, dk, k)
		}
		f.d[k] = dk
		f.invd[k] = 1 / dk
	}
	return nil
}

// Solve computes x = A⁻¹·b through the factors: permute, one forward
// sweep through L, the diagonal scaling, one backward sweep through Lᵀ,
// permute back. x and b must have length N and may alias. It never
// allocates once the handle's workspace has grown — this is the per-tick
// hot path of the transient thermal solver.
func (f *LDLNumeric) Solve(x, b []float64) {
	s := f.s
	n := s.n
	if len(x) != n || len(b) != n {
		panic("mat: LDL Solve dimension mismatch")
	}
	f.ws.w = grow(f.ws.w, n)
	w := f.ws.w
	for k := 0; k < n; k++ {
		w[k] = b[s.perm[k]]
	}
	if f.super {
		f.solveSuper(w)
	} else {
		f.solveScalar(w)
	}
	for k := 0; k < n; k++ {
		x[s.perm[k]] = w[k]
	}
}

// solveScalar runs the column-kernel sweeps over the permuted work
// vector w.
func (f *LDLFactor) solveScalar(w []float64) {
	s := f.s
	n := s.n
	for j := 0; j < n; j++ {
		wj := w[j]
		if wj == 0 {
			continue
		}
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			w[s.li[p]] -= f.lx[p] * wj
		}
	}
	for j := 0; j < n; j++ {
		w[j] *= f.invd[j]
	}
	for j := n - 1; j >= 0; j-- {
		wj := w[j]
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			wj -= f.lx[p] * w[s.li[p]]
		}
		w[j] = wj
	}
}
