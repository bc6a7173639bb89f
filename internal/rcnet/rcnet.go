// Package rcnet assembles and solves the grid-level thermal RC network of
// Section III: a HotSpot-style lumped network over the cells of a
// discretized 3D stack, extended with the paper's heterogeneous interlayer
// model (per-cell resistivity covering TSVs and microchannels) and with
// runtime-variable coolant flow.
//
// Liquid-cooled stacks exchange heat with the coolant through a per-cell
// convective conductance derived from Eqn. 7's effective heat-transfer
// coefficient; the coolant temperature profile along each channel is
// marched per tick with the paper's iterative ΔTheat accumulation (Eqn. 4
// generalized). Air-cooled stacks attach a lumped spreader/sink node with
// Table III's convection resistance and capacitance.
//
// The network is solved with backward-Euler time stepping (unconditionally
// stable for the stiff RC systems that 0.4 mm cavities against 100 ms ticks
// produce). Every linear solve goes through one cached sparse LDLᵀ direct
// factorization: the system matrix depends only on the grid, the pump's
// flow setting and the time step. A System holds everything that depends
// on the grid alone — the assembled network and its symbolic analysis
// (fill-reducing nested-dissection or RCM ordering) — plus a bounded
// (flow, dt) cache of numeric factors, and any number of Models share one
// System. The first model to solve a (flow, dt) combination factors it
// for all of them; every later tick of any model costs just two
// triangular sweeps through the shared, read-only factor in the model's
// own workspace — allocation-free. The analysis picks the kernel family
// from the system size (scalar columns below the supernodal gate, dense
// supernodal panels above it). A matrix that is not positive definite is
// a returned error wrapping mat.ErrNotPositiveDefinite. Steady states are
// fixed-point iterations between the conduction solve and the coolant
// march.
package rcnet

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// Config carries the boundary conditions and package parameters.
type Config struct {
	// AmbientAir is the air temperature for the air-cooled package.
	AmbientAir units.Kelvin
	// CoolantInlet is the coolant inlet temperature. The paper's Fig. 5
	// spans maximum temperatures of 70–90 °C against an 80 °C target,
	// which pins the operating regime to warm-water cooling; we default
	// to 70 °C (see EXPERIMENTS.md).
	CoolantInlet units.Kelvin
	// SinkSpreadResistivity is the per-area resistance (K·m²/W) between
	// the top die and the lumped sink node: TIM plus spreader plus
	// spreading, calibrated for the compact 3D package (the paper uses
	// HotSpot's default package; this is our lumped equivalent).
	SinkSpreadResistivity float64
	// SinkConvectionR is the sink-to-ambient convection resistance
	// (Table III: 0.1 K/W).
	SinkConvectionR float64
	// SinkCapacitance is the lumped package capacitance (Table III:
	// 140 J/K).
	SinkCapacitance float64
	// InitTemp is the uniform initial temperature.
	InitTemp units.Kelvin
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		AmbientAir:            units.Celsius(45).ToKelvin(),
		CoolantInlet:          units.Celsius(70).ToKelvin(),
		SinkSpreadResistivity: 3.5e-5,
		SinkConvectionR:       0.1,
		SinkCapacitance:       140,
		InitTemp:              units.Celsius(60).ToKelvin(),
	}
}

// System is the assembled thermal network of one grid and configuration:
// the conduction Laplacian (its CSR pattern and values), the nodal
// capacitances, the convective conductances, the static boundary terms,
// the symbolic LDLᵀ analysis of the system matrix and the (flow, dt)
// factor cache. All of it depends only on (grid, config), so one System
// serves any number of models — a platform owns one and builds every run's
// model from it. A System is immutable after NewSystem (the factor cache
// is internally synchronized) and safe for concurrent use.
type System struct {
	grid *grid.Grid
	cfg  Config

	n        int // total unknowns (grid nodes, +1 sink for air)
	sinkNode int // -1 when liquid-cooled

	base     *mat.CSR  // conduction Laplacian (diagonal included)
	baseDiag []float64 // diagonal of base
	sysDiag  []int     // position of each row's diagonal entry in base.Val
	capac    []float64 // nodal heat capacitances (J/K)
	convG    []float64 // per-node convective conductance at unit coverage
	boundG   []float64 // static boundary conductances (the air sink's)
	boundT   []float64 // initial boundary temperatures (K)

	// channelsPerRow is the number of channels crossing one cell row of a
	// cavity (uniform across cavities and rows under homogenization).
	channelsPerRow float64

	symb    *mat.LDLSymbolic
	factors factorCache
}

// NewSystem assembles the thermal network for g and performs the symbolic
// analysis of its system matrix.
func NewSystem(g *grid.Grid, cfg Config) (*System, error) {
	s := &System{grid: g, cfg: cfg, sinkNode: -1}
	s.n = g.TotalNodes()
	if !g.Stack.LiquidCooled {
		s.sinkNode = s.n
		s.n++
	}
	if err := s.assemble(); err != nil {
		return nil, err
	}
	// buildSystem only perturbs the diagonal of the fixed-sparsity base
	// Laplacian, so each row's diagonal slot is located once and models
	// rewrite just those entries per solve.
	s.sysDiag = make([]int, s.n)
	if err := s.base.DiagIndex(s.sysDiag); err != nil {
		return nil, fmt.Errorf("rcnet: %w", err)
	}
	if g.Stack.LiquidCooled {
		// Channels crossing one cell row of a cavity:
		// channelsPerCavity · cellH / stackHeight.
		s.channelsPerRow = float64(g.Stack.ChannelsPerCavity) *
			float64(g.CellH) / float64(g.Stack.Height)
	}
	symb, err := mat.AnalyzeLDL(s.base, mat.OrderAuto)
	if err != nil {
		return nil, err
	}
	s.symb = symb
	return s, nil
}

// Symbolic returns the shared symbolic analysis (read-only).
func (s *System) Symbolic() *mat.LDLSymbolic { return s.symb }

// Model is a solvable thermal network bound to one grid: the per-run
// mutable state (temperatures, power, flow, coolant profile, solver
// workspace) over a shared System.
type Model struct {
	Grid *grid.Grid
	Cfg  Config

	shared *System

	n        int // total unknowns (grid nodes, +1 sink for air)
	sinkNode int // -1 when liquid-cooled

	// Read-only views of the shared assembly.
	baseDiag []float64
	sysDiag  []int
	capac    []float64
	convG    []float64

	boundG []float64 // per-node boundary conductance (W/K)
	boundT []float64 // per-node boundary temperature (K)
	heat   []float64 // per-node injected power (W)

	temp []float64 // current temperatures (K)

	flow    units.LitersPerMinute     // per-cavity delivered flow
	perChan units.CubicMeterPerSecond // per-channel flow

	// Flow-dependent coolant-march coefficients, refreshed by SetFlow so
	// marchCoolant runs exp-free every tick: rowCap is the per-row
	// transport capacity ρ·c·V̇·channels, decay[i] = exp(−gᵢ/rowCap) and
	// invRatio[i] = rowCap/gᵢ for every convective cell i.
	rowCap   float64
	decay    []float64
	invRatio []float64

	// totalPower caches the sum over heat, invalidated by SetLayerPower
	// (SteadyState reads it every outer iteration).
	totalPower   float64
	totalPowerOK bool

	// spread is the reusable SetLayerPower cell buffer.
	spread []float64

	sys      *mat.CSR // system matrix: the shared pattern, own values
	rhs, old []float64
	ssPrev   []float64 // SteadyState fixed-point scratch

	// Direct-solver state: the model's own LDLᵀ workspace and a handle on
	// the shared factor of the last (flow, dt) key it solved.
	ws      mat.LDLWorkspace
	num     mat.LDLNumeric
	numKey  factorKey
	numOK   bool
	nFactor int // numeric factorizations this model performed

	// Step-doubling estimator scratch (StepWithEstimate).
	estState TransientState
	estFull  []float64
}

// New builds the thermal network for g on a private System.
func New(g *grid.Grid, cfg Config) (*Model, error) {
	s, err := NewSystem(g, cfg)
	if err != nil {
		return nil, err
	}
	return s.NewModel()
}

// NewModel returns a fresh model on the shared system: the assembly, the
// symbolic analysis and the factor cache are shared, the per-run state is
// the model's own. Safe to call concurrently.
func (s *System) NewModel() (*Model, error) {
	m := &Model{
		Grid: s.grid, Cfg: s.cfg, shared: s,
		n: s.n, sinkNode: s.sinkNode,
		baseDiag: s.baseDiag, sysDiag: s.sysDiag, capac: s.capac, convG: s.convG,
		boundG:   slices.Clone(s.boundG),
		boundT:   slices.Clone(s.boundT),
		heat:     make([]float64, s.n),
		temp:     make([]float64, s.n),
		decay:    make([]float64, s.n),
		invRatio: make([]float64, s.n),
		rhs:      make([]float64, s.n),
		old:      make([]float64, s.n),
		sys: &mat.CSR{N: s.n, RowPtr: s.base.RowPtr, Col: s.base.Col,
			Val: slices.Clone(s.base.Val)},
	}
	for i := range m.temp {
		m.temp[i] = float64(s.cfg.InitTemp)
	}
	if s.grid.Stack.LiquidCooled {
		if err := m.SetFlow(0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// conductivity returns the (lateral, vertical) conductivities of a cell.
// Liquid cavities use the silicon-walled channel-structure model; plain
// bonding interfaces (air-cooled stacks) use the homogenized polymer+TSV
// mix matching Table III's 0.25 m·K/W resistivity.
func cellConductivity(s *grid.Slab, idx int) (kLat, kVert float64) {
	switch s.Kind {
	case grid.SlabDie:
		return microchannel.SiliconConductivity, microchannel.SiliconConductivity
	default:
		c := s.Inter[idx]
		f := microchannel.CellFractions{Channel: c.ChannelFrac, TSV: c.TSVFrac}
		if s.Liquid {
			k := f.CavityConductivity(float64(s.Thickness))
			return k, k
		}
		return f.LateralConductivity(), f.VerticalConductivity()
	}
}

func cellHeatCapacity(s *grid.Slab, idx int) float64 {
	switch s.Kind {
	case grid.SlabDie:
		return microchannel.SiliconVolumetricHeatCapacity
	default:
		c := s.Inter[idx]
		f := microchannel.CellFractions{Channel: c.ChannelFrac, TSV: c.TSVFrac}
		if s.Liquid {
			return f.CavityVolumetricHeatCapacity()
		}
		return f.VolumetricHeatCapacity()
	}
}

// assemble builds the conduction Laplacian, capacitances and static
// boundary terms.
func (s *System) assemble() error {
	g := s.grid
	s.capac = make([]float64, s.n)
	s.convG = make([]float64, s.n)
	s.boundG = make([]float64, s.n)
	s.boundT = make([]float64, s.n)
	b := mat.NewBuilder(s.n)
	// ~1 diagonal seed + 3 neighbor couplings × 4 entries per node.
	b.Grow(14 * s.n)
	cellA := float64(g.CellArea())
	dx, dy := float64(g.CellW), float64(g.CellH)

	// Ensure every diagonal entry exists even for isolated nodes.
	for i := 0; i < s.n; i++ {
		b.Add(i, i, 0)
	}

	addCoupling := func(a, c int, gcond float64) {
		b.Add(a, a, gcond)
		b.Add(c, c, gcond)
		b.Add(a, c, -gcond)
		b.Add(c, a, -gcond)
	}

	for si := range g.Slabs {
		sl := &g.Slabs[si]
		t := float64(sl.Thickness)
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX; ix++ {
				idx := iy*g.NX + ix
				node := g.NodeIndex(si, iy, ix)
				kL, _ := cellConductivity(sl, idx)
				// Capacitance.
				s.capac[node] = cellHeatCapacity(sl, idx) * cellA * t
				// Lateral couplings (add once per pair: to +x and +y).
				if ix+1 < g.NX {
					kL2, _ := cellConductivity(sl, iy*g.NX+ix+1)
					r := dx/(2*kL*dy*t) + dx/(2*kL2*dy*t)
					addCoupling(node, g.NodeIndex(si, iy, ix+1), 1/r)
				}
				if iy+1 < g.NY {
					kL2, _ := cellConductivity(sl, (iy+1)*g.NX+ix)
					r := dy/(2*kL*dx*t) + dy/(2*kL2*dx*t)
					addCoupling(node, g.NodeIndex(si, iy+1, ix), 1/r)
				}
				// Vertical coupling to slab above.
				if si+1 < len(g.Slabs) {
					s2 := &g.Slabs[si+1]
					_, kV1 := cellConductivity(sl, idx)
					_, kV2 := cellConductivity(s2, idx)
					r := t/(2*kV1*cellA) + float64(s2.Thickness)/(2*kV2*cellA)
					// Each die's wiring stack (BEOL) faces the slab
					// above it (Fig. 2): add Rth-BEOL in series.
					if sl.Kind == grid.SlabDie {
						r += microchannel.RthBEOL / cellA
					}
					addCoupling(node, g.NodeIndex(si+1, iy, ix), 1/r)
				}
			}
		}
	}

	// Boundary terms.
	if g.Stack.LiquidCooled {
		// Convective conductance of each cavity cell at the current flow
		// is convG (flow-independent in magnitude once boundary layers
		// develop — Section III.A — but switched off at zero flow).
		// G = h · 2(wc+tc) · Lchan, with Lchan the channel length inside
		// the cell: frac·A/wc.
		for _, ci := range g.CavitySlabs() {
			sl := &g.Slabs[ci]
			for idx, c := range sl.Inter {
				if c.ChannelFrac <= 0 {
					continue
				}
				lchan := c.ChannelFrac * cellA / microchannel.ChannelWidth
				gconv := microchannel.HeatTransferCoeff *
					2 * (microchannel.ChannelWidth + microchannel.ChannelHeight) * lchan
				node := ci*g.NumCells() + idx
				s.convG[node] = gconv
				s.boundT[node] = float64(s.cfg.CoolantInlet)
			}
		}
	} else {
		// Couple every top-die cell to the lumped sink node, and the sink
		// to ambient.
		top := len(g.Slabs) - 1
		sl := &g.Slabs[top]
		if sl.Kind != grid.SlabDie {
			return fmt.Errorf("rcnet: air-cooled stack must end with a die slab")
		}
		t := float64(sl.Thickness)
		for idx := 0; idx < g.NumCells(); idx++ {
			_, kV := cellConductivity(sl, idx)
			r := t/(2*kV*cellA) + (microchannel.RthBEOL+s.cfg.SinkSpreadResistivity)/cellA
			addCoupling(g.NodeIndex(top, idx/g.NX, idx%g.NX), s.sinkNode, 1/r)
		}
		s.capac[s.sinkNode] = s.cfg.SinkCapacitance
		s.boundG[s.sinkNode] = 1 / s.cfg.SinkConvectionR
		s.boundT[s.sinkNode] = float64(s.cfg.AmbientAir)
	}

	s.base = b.Build()
	if !s.base.IsSymmetric(1e-9) {
		return fmt.Errorf("rcnet: assembled matrix not symmetric")
	}
	s.baseDiag = make([]float64, s.n)
	s.base.Diagonal(s.baseDiag)
	return nil
}

// SetFlow sets the delivered per-cavity volumetric flow rate. Zero turns
// convection off (stagnant coolant still conducts). Returns an error for
// negative flow or on an air-cooled model with non-zero flow.
func (m *Model) SetFlow(perCavity units.LitersPerMinute) error {
	if perCavity < 0 {
		return fmt.Errorf("rcnet: negative flow %v", perCavity)
	}
	if !m.Grid.Stack.LiquidCooled {
		if perCavity != 0 {
			return fmt.Errorf("rcnet: flow on air-cooled model")
		}
		return nil
	}
	m.flow = perCavity
	v, err := microchannel.PerChannelFlow(perCavity, m.Grid.Stack.ChannelsPerCavity)
	if err != nil {
		return err
	}
	m.perChan = v
	m.rowCap = 0
	if v > 0 {
		m.rowCap = microchannel.CoolantDensity * microchannel.CoolantHeatCapacity *
			float64(v) * m.shared.channelsPerRow
	}
	for node, gc := range m.convG {
		if gc == 0 {
			continue
		}
		if perCavity > 0 {
			m.boundG[node] = gc
			// Per-cell march coefficients (see marchCoolant): they only
			// change with the flow, so the per-tick march stays exp-free.
			ratio := gc / m.rowCap
			m.decay[node] = math.Exp(-ratio)
			m.invRatio[node] = 1 / ratio
		} else {
			m.boundG[node] = 0
		}
	}
	return nil
}

// Flow returns the current per-cavity flow.
func (m *Model) Flow() units.LitersPerMinute { return m.flow }

// SetLayerPower installs per-block power (W) for stack layer li, spread
// uniformly over each block's cells. It reuses a model-owned spread buffer
// so per-tick power updates are allocation-free.
func (m *Model) SetLayerPower(li int, blockPower []float64) error {
	if m.spread == nil {
		m.spread = make([]float64, m.Grid.NumCells())
	}
	cells, err := m.Grid.SpreadBlockPowerInto(li, blockPower, m.spread)
	if err != nil {
		return err
	}
	slab := m.Grid.DieSlab[li]
	off := slab * m.Grid.NumCells()
	for i, p := range cells {
		m.heat[off+i] = p
	}
	m.totalPowerOK = false
	return nil
}

// TotalPower returns the currently injected power. The sum is cached and
// invalidated by SetLayerPower (SteadyState's fixed point reads it every
// outer iteration).
func (m *Model) TotalPower() units.Watt {
	if !m.totalPowerOK {
		s := 0.0
		for _, p := range m.heat {
			s += p
		}
		m.totalPower = s
		m.totalPowerOK = true
	}
	return units.Watt(m.totalPower)
}

// marchCoolant updates the boundary temperatures of all cavity cells by
// integrating absorbed heat along each channel row (the paper's iterative
// ΔTheat). It uses the current cell temperatures. relax in (0,1] blends the
// new profile into the previous one; the steady-state fixed point uses
// under-relaxation to stay stable at very low flows where the profile is
// extremely sensitive to the wall temperatures.
func (m *Model) marchCoolant(relax float64) {
	g := m.Grid
	if !g.Stack.LiquidCooled || m.perChan <= 0 {
		return
	}
	inlet := float64(m.Cfg.CoolantInlet)
	for _, ci := range g.CavitySlabs() {
		off := ci * g.NumCells()
		for iy := 0; iy < g.NY; iy++ {
			tf := inlet
			for ix := 0; ix < g.NX; ix++ {
				node := off + iy*g.NX + ix
				if m.convG[node] == 0 {
					continue
				}
				// Exact segment integration for constant wall
				// temperature: dTf/dξ = (g/c)(Tw − Tf) over the cell
				// gives the exponential approach
				//   Tf,out = Tw + (Tf,in − Tw)·e^(−g/c),
				// unconditionally stable even when the coolant
				// saturates (g ≫ c at very low flows). The boundary
				// node sees the energy-consistent mean fluid
				// temperature Tw − c·(Tf,out − Tf,in)/g... expressed
				// via the log-mean form below. The per-cell e^(−g/c)
				// and c/g coefficients depend only on the flow, so
				// SetFlow precomputes them (decay, invRatio) and the
				// per-tick march is exp-free.
				tw := m.temp[node]
				tfOut := tw + (tf-tw)*m.decay[node]
				// Mean such that gc·(Tw − mean) = rowCap·(tfOut − tf).
				mean := tw - (tfOut-tf)*m.invRatio[node]
				m.boundT[node] += relax * (mean - m.boundT[node])
				tf = tfOut
			}
		}
	}
}

// buildSystem writes A = G + diag(boundG) + diag(C/dt) into m.sys (dt may
// be 0 for steady state) and the matching RHS into m.rhs. Only the diagonal
// of the fixed-sparsity base Laplacian is perturbed, so the off-diagonal
// values copied at construction are reused untouched and each diagonal
// entry is overwritten through its cached slot.
func (m *Model) buildSystem(dt float64) {
	for i := 0; i < m.n; i++ {
		extra := m.boundG[i]
		if dt > 0 {
			extra += m.capac[i] / dt
		}
		m.sys.Val[m.sysDiag[i]] = m.baseDiag[i] + extra
		m.rhs[i] = m.heat[i] + m.boundG[i]*m.boundT[i]
		if dt > 0 {
			m.rhs[i] += m.capac[i] / dt * m.old[i]
		}
	}
}

// Step advances the transient solution by dt seconds with backward Euler,
// marching the coolant once per step (the paper re-computes flux-dependent
// terms periodically rather than continuously). The first Step of any
// model of the System at a new (flow setting, dt) combination factors the
// system once; every later tick reuses the cached factors and performs
// just two triangular sweeps, allocation-free.
func (m *Model) Step(dt units.Second) error {
	if dt <= 0 {
		return fmt.Errorf("rcnet: non-positive dt %v", dt)
	}
	m.prepareStep(float64(dt))
	return m.solvePrepared(float64(dt))
}

// prepareStep runs the pre-solve half of Step: coolant march, state
// rotation and system assembly. After it, the model's (sys, rhs) pair is
// ready for solvePrepared — or for a gang's SolveBatch sweep (see
// BatchStepper), which is why the halves are split.
func (m *Model) prepareStep(dt float64) {
	m.marchCoolant(1)
	copy(m.old, m.temp)
	m.buildSystem(dt)
}

// solvePrepared runs the post-assembly half of Step: the cached direct
// solve. Step ≡ prepareStep + solvePrepared.
func (m *Model) solvePrepared(dt float64) error {
	num, err := m.factorFor(dt)
	if err != nil {
		return fmt.Errorf("rcnet: transient solve: %w", err)
	}
	num.Solve(m.temp, m.rhs)
	return nil
}

// SteadyState solves for the equilibrium temperature field via fixed-point
// iteration between the conduction solve and the coolant march.
func (m *Model) SteadyState() error {
	if m.Grid.Stack.LiquidCooled && m.perChan <= 0 {
		return fmt.Errorf("rcnet: steady state needs non-zero flow on a liquid-cooled stack")
	}
	const maxOuter = 400
	// At low flows the coolant saturates to the wall temperature and the
	// plain fixed point converges geometrically with a vanishing rate:
	// the global temperature offset is nearly unobservable to the local
	// updates. Accelerate that mode explicitly: after each solve, shift
	// the whole field by the net energy imbalance divided by the total
	// coolant transport capacity (the exact sensitivity of heat removal
	// to a uniform temperature offset in the saturated regime).
	totalTransport := 0.0
	if m.Grid.Stack.LiquidCooled {
		totalTransport = m.rowCap * float64(m.Grid.NY) * float64(len(m.Grid.CavitySlabs()))
	}
	if m.ssPrev == nil {
		m.ssPrev = make([]float64, m.n)
	}
	prev := m.ssPrev
	copy(prev, m.temp)
	for outer := 0; outer < maxOuter; outer++ {
		// Full updates while far from the fixed point, under-relaxed
		// once close (low flows react strongly to wall temperatures).
		relax := 1.0
		if outer > 2 {
			relax = 0.6
		}
		m.marchCoolant(relax)
		m.buildSystem(0)
		// The dt=0 matrix is constant across the whole fixed point (only
		// the coolant boundary temperatures on the RHS move), so it is
		// factored once per flow setting and every outer iteration — and
		// every ladder point of a controller.BuildLUT sweep at that
		// setting — reuses the cached factors.
		num, err := m.factorFor(0)
		if err != nil {
			return fmt.Errorf("rcnet: steady solve: %w", err)
		}
		num.Solve(m.temp, m.rhs)
		if totalTransport > 0 {
			imbalance := float64(m.TotalPower()) - float64(m.HeatRemovedByCoolant())
			offset := units.Clamp(imbalance/totalTransport, -10, 10)
			if math.Abs(offset) > 1e-9 {
				for i := range m.temp {
					m.temp[i] += offset
				}
				for node, gc := range m.convG {
					if gc > 0 && m.boundG[node] > 0 {
						m.boundT[node] += offset
					}
				}
			}
		}
		// Converged when no node moves appreciably.
		delta := 0.0
		for i := range prev {
			if d := math.Abs(m.temp[i] - prev[i]); d > delta {
				delta = d
			}
		}
		if delta < 1e-5 {
			return nil
		}
		copy(prev, m.temp)
	}
	return fmt.Errorf("rcnet: steady-state fixed point did not converge in %d iterations", maxOuter)
}

// Temps returns the raw node temperatures (K). The slice aliases internal
// state: it is invalidated by the next Step/SteadyState call and must not
// be modified or read concurrently with one. Use TempsCopy when the values
// must outlive the model's next solve (e.g. when models run on worker
// goroutines).
func (m *Model) Temps() []float64 { return m.temp }

// TempsCopy returns a snapshot of the node temperatures (K) sharing no
// storage with the model — the race-safe counterpart of Temps.
func (m *Model) TempsCopy() []float64 {
	return append([]float64(nil), m.temp...)
}

// SetUniformTemp resets every node to t.
func (m *Model) SetUniformTemp(t units.Kelvin) {
	for i := range m.temp {
		m.temp[i] = float64(t)
	}
}

// CellTemp returns the temperature of one grid cell.
func (m *Model) CellTemp(slab, iy, ix int) units.Kelvin {
	return units.Kelvin(m.temp[m.Grid.NodeIndex(slab, iy, ix)])
}

// BlockTemp returns the mean temperature over the cells of block bi on
// stack layer li.
func (m *Model) BlockTemp(li, bi int) units.Kelvin {
	cells := m.Grid.BlockCells[li][bi]
	off := m.Grid.DieSlab[li] * m.Grid.NumCells()
	s := 0.0
	for _, c := range cells {
		s += m.temp[off+c]
	}
	return units.Kelvin(s / float64(len(cells)))
}

// BlockMaxTemp returns the hottest cell of block bi on layer li.
func (m *Model) BlockMaxTemp(li, bi int) units.Kelvin {
	cells := m.Grid.BlockCells[li][bi]
	off := m.Grid.DieSlab[li] * m.Grid.NumCells()
	mx := math.Inf(-1)
	for _, c := range cells {
		if m.temp[off+c] > mx {
			mx = m.temp[off+c]
		}
	}
	return units.Kelvin(mx)
}

// MaxDieTemp returns the hottest die-cell temperature, the paper's Tmax.
func (m *Model) MaxDieTemp() units.Kelvin {
	mx := math.Inf(-1)
	g := m.Grid
	for _, slab := range g.DieSlab {
		off := slab * g.NumCells()
		for i := 0; i < g.NumCells(); i++ {
			if m.temp[off+i] > mx {
				mx = m.temp[off+i]
			}
		}
	}
	return units.Kelvin(mx)
}

// CoolantOutletTemp returns the mean outlet coolant temperature of cavity
// slab ci (a CavitySlabs index), for energy accounting and diagnostics.
func (m *Model) CoolantOutletTemp(ci int) units.Kelvin {
	g := m.Grid
	off := ci * g.NumCells()
	sum, cnt := 0.0, 0
	for iy := 0; iy < g.NY; iy++ {
		node := off + iy*g.NX + (g.NX - 1)
		if m.convG[node] > 0 {
			sum += m.boundT[node]
			cnt++
		}
	}
	if cnt == 0 {
		return m.Cfg.CoolantInlet
	}
	return units.Kelvin(sum / float64(cnt))
}

// HeatRemovedByCoolant returns the instantaneous heat flow into the
// coolant (W).
func (m *Model) HeatRemovedByCoolant() units.Watt {
	s := 0.0
	for node, gb := range m.boundG {
		if m.convG[node] > 0 && gb > 0 {
			s += gb * (m.temp[node] - m.boundT[node])
		}
	}
	return units.Watt(s)
}

// NumNodes returns the unknown count (diagnostics).
func (m *Model) NumNodes() int { return m.n }
