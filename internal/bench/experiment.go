package bench

import (
	"fmt"

	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// Config describes one experiment. The JSON form (used by
// internal/campaign's records and cmd/cdnasweep's grid specs) carries
// everything except the calibration, which is always reconstructed from
// Default() so that result files stay small and stable.
type Config struct {
	Mode       Mode      `json:"mode"`
	NIC        NICKind   `json:"nic"`
	Guests     int       `json:"guests"`
	NICs       int       `json:"nics"`
	Dir        Direction `json:"dir"`
	Protection core.Mode `json:"protection"` // CDNA only

	// Hosts is the number of machines on the fabric. 0 or 1 is the
	// classic topology (one host plus the CPU-less peer); >= 2 builds
	// that many full hosts — each with its own CPU, guests and NICs —
	// on a simulated top-of-rack switch, with traffic wired by Pattern.
	Hosts int `json:"hosts,omitempty"`
	// Pattern selects the cross-host scenario (pairs | incast |
	// all2all); ignored unless Hosts > 1.
	Pattern Pattern `json:"pattern,omitempty"`
	// Fabric selects the switch topology connecting the hosts. The zero
	// value is the classic single top-of-rack switch, so legacy configs
	// and records are unchanged; leaf-spine and fat-tree presets compose
	// multiple switches with ECMP-hashed trunks (internal/topo).
	// Requires Hosts > 1 for any non-ToR kind.
	Fabric topo.FabricSpec `json:"fabric,omitzero"`

	ConnsPerGuestPerNIC int `json:"conns_per_guest_per_nic"`
	Window              int `json:"window"`

	// Workload selects the traffic shape each connection slot runs.
	// The zero value is the paper's bulk benchmark, so legacy configs
	// and records are unchanged.
	Workload workload.Spec `json:"workload"`

	// MaxEnqueueBatch caps descriptors per CDNA enqueue (ablation A2;
	// 0 = unlimited).
	MaxEnqueueBatch int `json:"max_enqueue_batch,omitempty"`
	// DirectPerContextIRQ switches the CDNA NIC to one physical
	// interrupt per context (ablation A1).
	DirectPerContextIRQ bool `json:"direct_per_context_irq,omitempty"`
	// TxCoalescePkts overrides the CDNA NIC's transmit interrupt
	// coalescing threshold (ablation A5; 0 = calibrated default).
	TxCoalescePkts int `json:"tx_coalesce_pkts,omitempty"`

	// Fault schedules a fault/churn scenario inside the measurement
	// window (fault.go). The zero value injects nothing, so legacy
	// configs and records are unchanged.
	Fault FaultSpec `json:"fault,omitzero"`

	Warmup   sim.Time `json:"warmup_ns"`
	Duration sim.Time `json:"duration_ns"`

	Cal Calibration `json:"-"`
}

// Name returns a compact identifier for logs and tables. Non-default
// variants (protection, the ablation knobs) append suffixes so that
// every point of a campaign grid has a distinct name.
func (c Config) Name() string {
	name := fmt.Sprintf("%v/%v/%dg/%dnic/%v", c.Mode, c.NIC, c.Guests, c.NICs, c.Dir)
	if c.Hosts > 1 {
		name += fmt.Sprintf("/hosts=%d/%v", c.Hosts, c.Pattern) + c.Fabric.Suffix()
	}
	if c.Mode == ModeCDNA && c.Protection != core.ModeHypercall {
		name += "/prot=" + c.Protection.String()
	}
	if c.MaxEnqueueBatch > 0 {
		name += fmt.Sprintf("/batch=%d", c.MaxEnqueueBatch)
	}
	if c.DirectPerContextIRQ {
		name += "/directirq"
	}
	if c.TxCoalescePkts > 0 {
		name += fmt.Sprintf("/coal=%d", c.TxCoalescePkts)
	}
	name += c.Workload.Suffix()
	name += c.Fault.Suffix()
	return name
}

// DefaultConfig returns the standard 2-NIC single-guest setup of
// Tables 2–4, in the given mode and direction.
func DefaultConfig(mode Mode, nic NICKind, dir Direction) Config {
	cfg := Config{
		Mode:       mode,
		NIC:        nic,
		Guests:     1,
		NICs:       2,
		Dir:        dir,
		Protection: core.ModeHypercall,
		Window:     48,
		Warmup:     300 * sim.Millisecond,
		Duration:   sim.Second,
		Cal:        Default(),
	}
	cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	return cfg
}

// BalancedConns returns the default connections per guest per NIC for
// a guest count: a fixed total per NIC balanced over the guests, as the
// paper's benchmark tool does (§5.1). Campaign grids use it to record
// the effective connection count explicitly in each configuration.
func BalancedConns(guests int) int { return connsFor(guests) }

// connsFor balances a fixed total connection count per NIC over the
// guests, as the paper's benchmark tool does (§5.1).
func connsFor(guests int) int {
	const totalPerNIC = 12
	c := totalPerNIC / guests
	if c < 1 {
		c = 1
	}
	return c
}

// Result is one experiment's measurements, matching the columns of
// Tables 2–4. The JSON field names are the machine-readable schema
// documented in EXPERIMENTS.md and emitted by cmd/cdnasweep.
type Result struct {
	Config Config `json:"config"`

	Mbps    float64       `json:"mbps"`
	Profile stats.Profile `json:"profile"`

	DriverIntrPerSec float64 `json:"driver_intr_per_sec"` // interrupts delivered to the driver domain
	GuestIntrPerSec  float64 `json:"guest_intr_per_sec"`  // interrupts delivered to guests (aggregate)

	PktPerSec     float64 `json:"pkt_per_sec"`
	PhysIRQPerSec float64 `json:"phys_irq_per_sec"` // physical interrupts fielded by the hypervisor
	LatencyP50us  float64 `json:"latency_p50_us"`   // median end-to-end segment latency
	LatencyP90us  float64 `json:"latency_p90_us"`
	Drops         uint64  `json:"drops"` // NIC-level receive drops
	Retransmits   uint64  `json:"retransmits"`
	Fairness      float64 `json:"fairness"`
	Faults        uint64  `json:"faults"` // CDNA protection faults (should be 0 under load)
	Events        uint64  `json:"events"` // simulator events executed (diagnostics)

	// Fabric columns (multi-host only; zero for the classic topology),
	// all scoped to the measurement window: FabricDrops is egress tail
	// drops at the switch; FabricMaxDepth the deepest egress queue any
	// port reached. FabricFlooded and FabricMoves gauge forwarding-
	// database churn: a port failure unlearns every station behind the
	// port, so traffic toward them floods until they re-learn; Moves
	// counts stations re-learned on a *different* port (zero on a
	// single-switch star, where re-learning lands on the same port).
	FabricDrops    uint64 `json:"fabric_drops,omitempty"`
	FabricMaxDepth int    `json:"fabric_max_depth,omitempty"`
	FabricFlooded  uint64 `json:"fabric_flooded,omitempty"`
	FabricMoves    uint64 `json:"fabric_fdb_moves,omitempty"`

	// LinkDrops counts frames discarded at down access links — nonzero
	// only under fault scenarios, where it measures how much traffic
	// the outage destroyed.
	LinkDrops uint64 `json:"link_drops,omitempty"`

	// Workload columns (zero for bulk). MsgLat* is message-completion
	// latency: RPC issue→response for request/response, flow
	// open→final-ack for churn.
	RPCPerSec   float64 `json:"rpc_per_sec,omitempty"`   // completed RPC exchanges per second
	FlowsPerSec float64 `json:"flows_per_sec,omitempty"` // completed short-lived flows per second
	MsgLatP50us float64 `json:"msg_lat_p50_us,omitempty"`
	MsgLatP99us float64 `json:"msg_lat_p99_us,omitempty"`

	// Open-loop columns (zero for closed-loop workloads). ArrivalsPerSec
	// is the offered flow rate; compared with FlowsPerSec it exposes the
	// backlog an overloaded fabric accrues — the response-time-collapse
	// signature a closed-loop generator cannot show.
	ArrivalsPerSec float64 `json:"arrivals_per_sec,omitempty"`
	// TraceSkipped counts trace events that matched no endpoint pair
	// (trace kind only): a nonzero value means the trace's src/dst
	// hosts don't line up with the configured pattern's connections —
	// the row is measuring less traffic than the trace offered.
	TraceSkipped int `json:"trace_skipped,omitempty"`
	// FabricStrays counts frames the multi-tier valley-free rule
	// released (destination learned upward from an upward ingress —
	// transient, during FDB churn). Zero on single-switch fabrics.
	FabricStrays uint64 `json:"fabric_strays,omitempty"`
}

// String formats the result as a row like the paper's tables.
func (r Result) String() string {
	return fmt.Sprintf("%-28s %7.0f Mb/s | %s | drv %5.0f/s gst %6.0f/s",
		r.Config.Name(), r.Mbps, r.Profile, r.DriverIntrPerSec, r.GuestIntrPerSec)
}

// Validate rejects configurations the simulator cannot run
// meaningfully: they would divide by zero while balancing connections
// or produce NaN/Inf rates that poison result encoding. Run calls it,
// so a campaign records a clean error for such grid points instead of
// a panic.
func (c Config) Validate() error {
	if c.Guests < 1 {
		return fmt.Errorf("bench: config needs at least one guest (got %d)", c.Guests)
	}
	if !c.Mode.Drives(c.NIC) {
		return fmt.Errorf("bench: %v mode cannot drive the %s NIC", c.Mode, NICKinds.String(c.NIC))
	}
	if c.NICs < 1 {
		return fmt.Errorf("bench: config needs at least one NIC (got %d)", c.NICs)
	}
	if c.Window < 1 {
		return fmt.Errorf("bench: config needs a positive transport window (got %d)", c.Window)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("bench: config needs a positive measurement duration (got %v)", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("bench: config needs a non-negative warmup (got %v)", c.Warmup)
	}
	if c.Hosts < 0 || c.Hosts > maxHosts {
		return fmt.Errorf("bench: config needs 0..%d hosts (got %d)", maxHosts, c.Hosts)
	}
	if c.Guests > maxPerHost || c.NICs > maxPerHost {
		return fmt.Errorf("bench: configs need guests and NICs <= %d (got %d/%d)", maxPerHost, c.Guests, c.NICs)
	}
	if c.Hosts > 1 && Patterns.Tokens(c.Pattern) == nil {
		return fmt.Errorf("bench: unknown traffic pattern %v", c.Pattern)
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if c.Fabric.Kind != topo.KindToR && c.Hosts <= 1 {
		return fmt.Errorf("bench: %v fabric needs a multi-host configuration (hosts > 1)", c.Fabric.Kind)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Fault.validate(c); err != nil {
		return err
	}
	return nil
}

// Run builds the machine, runs warmup plus the measurement window, and
// collects the result.
func Run(cfg Config) (Result, error) {
	_, res, err := runMachine(cfg, 0)
	return res, err
}

// RunTraced is Run with the simulator's flight recorder attached: the
// returned machine's Tracer holds the last `traceN` fired events.
func RunTraced(cfg Config, traceN int) (*Machine, Result, error) {
	return runMachine(cfg, traceN)
}

// runMachine is the canonical experiment lifecycle: Prepare, Launch,
// RunTo the end of warmup, OpenWindow, RunTo the end of the window,
// Collect. The phases are exported so harnesses that time or trace
// them separately (perfbench) run the same code in the same order.
func runMachine(cfg Config, traceN int) (*Machine, Result, error) {
	m, err := Prepare(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	if traceN > 0 {
		m.Tracer = m.Eng.Attach(traceN)
	}
	res, err := m.run()
	return m, res, err
}

// run drives a prepared machine through the rest of the lifecycle. A
// trace replay none of whose rows matches a connection of the pattern
// fails here, before the machine runs: it would measure nothing.
func (m *Machine) run() (Result, error) {
	m.Launch()
	if tr := m.Work.Trace(); tr != nil && len(tr.Events) > 0 && m.Work.TraceSkipped() == len(tr.Events) {
		return Result{}, fmt.Errorf("bench: none of the %d trace events matches a connection (src/dst hosts vs pattern %v wiring)",
			len(tr.Events), m.cfg.Pattern)
	}
	m.RunTo(m.cfg.Warmup)
	m.OpenWindow()
	m.RunTo(m.cfg.Warmup + m.cfg.Duration)
	return m.Collect(), nil
}

// Prepare validates and normalizes a configuration and builds its
// machine (normalization fills the balanced connection count, so the
// recorded Result.Config is explicit).
func Prepare(cfg Config) (*Machine, error) {
	cfg.Fault = cfg.Fault.withDefaults(cfg.Duration)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ConnsPerGuestPerNIC <= 0 {
		cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	}
	return Build(cfg)
}

// Config returns the machine's normalized configuration.
func (m *Machine) Config() Config { return m.cfg }

// Launch starts the workload. The workload layer owns traffic start
// (staggered over the first part of warmup so initial windows do not
// arrive as one synchronized burst; for bulk this is the historical
// schedule).
func (m *Machine) Launch() { m.Work.Launch(m.cfg.Warmup) }

// RunTo advances the simulation to absolute time t.
func (m *Machine) RunTo(t sim.Time) { m.Eng.Run(t) }

// OpenWindow opens the measurement window: per-host components are
// reset in host order (single-host configurations take exactly the
// historical path: one CPU, one hypervisor), then the configured fault
// scenario is armed. Arming here — not at build or launch — keeps the
// pre-window event sequence identical between a fault variant and its
// fault-free base, so their warmups are the same simulation.
func (m *Machine) OpenWindow() {
	for _, h := range m.Hosts {
		h.CPU.StartWindow()
	}
	m.Conns.StartWindow()
	m.Work.StartWindow()
	for _, h := range m.Hosts {
		if h.Hyp != nil {
			h.Hyp.StartWindow()
		}
	}
	for _, n := range m.IntelNICs {
		n.E.StartWindow()
		n.Coal.Fires.StartWindow()
	}
	for _, n := range m.RiceNICs {
		n.E.StartWindow()
		n.Coal.Fires.StartWindow()
	}
	if m.Fabric != nil {
		m.Fabric.StartWindow()
	}
	for _, h := range m.Hosts {
		for _, l := range h.Links {
			l.StartWindow()
		}
	}
	m.faults.arm(m.cfg.Fault)
}

// Collect closes the measurement window and gathers the result row.
func (m *Machine) Collect() Result {
	cfg := m.cfg
	for _, h := range m.Hosts {
		h.CPU.EndWindow()
	}

	res := Result{
		Config:      cfg,
		Mbps:        m.Conns.DeliveredMbps(cfg.Duration),
		Profile:     m.profile(),
		Retransmits: m.Conns.Retransmits(),
		Fairness:    m.Conns.FairnessIndex(),
		Events:      m.Eng.Fired(),
	}
	res.PktPerSec = float64(m.Conns.DeliveredBytes()) / 1448 / cfg.Duration.Seconds()
	lat := m.Conns.LatencyQuantiles(0.5, 0.9)
	res.LatencyP50us, res.LatencyP90us = lat[0], lat[1]
	res.RPCPerSec = m.Work.Requests.Rate(cfg.Duration)
	res.FlowsPerSec = m.Work.Flows.Rate(cfg.Duration)
	res.ArrivalsPerSec = m.Work.Arrivals.Rate(cfg.Duration)
	res.TraceSkipped = m.Work.TraceSkipped()
	msgLat := m.Work.Latency.Quantiles(0.5, 0.99)
	res.MsgLatP50us, res.MsgLatP99us = msgLat[0], msgLat[1]
	for _, h := range m.Hosts {
		if h.Hyp != nil {
			res.PhysIRQPerSec += h.Hyp.PhysIRQs.Rate(cfg.Duration)
		}
	}

	for _, n := range m.IntelNICs {
		res.Drops += n.E.RxDrops.Window()
	}
	for _, n := range m.RiceNICs {
		res.Drops += n.E.RxDrops.Window()
		res.Faults += n.E.Faults.Window()
	}
	for _, h := range m.Hosts {
		for _, l := range h.Links {
			res.LinkDrops += l.Dropped.Window()
		}
	}
	if m.Fabric != nil {
		res.FabricDrops = m.Fabric.DropsWindow()
		res.FabricFlooded = m.Fabric.FloodedWindow()
		res.FabricMoves = m.Fabric.MovesWindow()
		res.FabricStrays = m.Fabric.StraysWindow()
		res.FabricMaxDepth = m.Fabric.MaxDepth()
	}

	switch cfg.Mode {
	case ModeNative:
		// Physical interrupts go straight to the host OS; report them in
		// the guest column.
		var fires uint64
		for _, n := range m.IntelNICs {
			fires += n.Coal.Fires.Window()
		}
		res.GuestIntrPerSec = float64(fires) / cfg.Duration.Seconds()
	default:
		var drv, g float64
		for _, h := range m.Hosts {
			if cfg.Mode == ModeXen {
				// All physical NIC interrupts route to the driver domain.
				drv += h.Hyp.PhysIRQs.Rate(cfg.Duration)
			} else {
				drv += h.dom0.Virqs.Rate(cfg.Duration)
			}
			for _, d := range h.guestDoms {
				g += d.Virqs.Rate(cfg.Duration)
			}
		}
		res.DriverIntrPerSec = drv
		res.GuestIntrPerSec = g
	}
	return res
}

// profile returns the execution profile of the machine: the single
// host's (the historical column), or the equal-weight mean over all
// hosts of a cluster (each host is one CPU).
func (m *Machine) profile() stats.Profile {
	if len(m.Hosts) == 1 {
		return m.Hosts[0].CPU.Profile()
	}
	var p stats.Profile
	for _, h := range m.Hosts {
		hp := h.CPU.Profile()
		p.Hyp += hp.Hyp
		p.DriverOS += hp.DriverOS
		p.DriverUser += hp.DriverUser
		p.GuestOS += hp.GuestOS
		p.GuestUser += hp.GuestUser
		p.Idle += hp.Idle
	}
	n := float64(len(m.Hosts))
	p.Hyp /= n
	p.DriverOS /= n
	p.DriverUser /= n
	p.GuestOS /= n
	p.GuestUser /= n
	p.Idle /= n
	return p
}
