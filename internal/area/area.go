// Package area implements the analytical hardware-cost model behind the
// paper's Table II: a structural gate-equivalent (GE) model of routers and
// network interfaces, technology scaling constants, an FPGA slice model,
// and the catalogue of published competitor router areas the paper
// compares against.
//
// The paper synthesized RTL; we cannot, so the substitution (documented in
// DESIGN.md) is a transparent structural model: every register, table bit,
// multiplexer leg, FIFO word and arbiter requester is counted and priced
// in NAND2-equivalent gates, then scaled by the technology node's NAND2
// footprint. Competitor areas are encoded as cited constants with the
// parameters the paper matched (ports, link width, VCs, SDM lanes).
// Absolute micrometres are calibrated; the claim preserved is the shape of
// Table II — daelite is smaller than every competitor row, by a lot
// against buffered/VC routers and by little against minimal ones.
package area

import "fmt"

// Tech is a technology node: the area of one NAND2-equivalent gate.
type Tech struct {
	Name    string
	NAND2um Float // µm² per gate equivalent
}

// Float is a plain float64; the alias keeps signatures self-describing.
type Float = float64

// Technology nodes used across Table II.
var (
	Tech130 = Tech{Name: "130nm", NAND2um: 5.0}
	Tech120 = Tech{Name: "120nm", NAND2um: 4.2}
	Tech90  = Tech{Name: "90nm", NAND2um: 2.2}
	Tech65  = Tech{Name: "65nm", NAND2um: 1.2}
)

// GateModel prices the structural primitives in gate equivalents.
type GateModel struct {
	FF            Float // one flip-flop
	SRAMBit       Float // one bit of register-file storage (FIFOs, tables)
	Mux2PerBit    Float // one 2:1 multiplexer leg, per bit
	CounterBit    Float // one bit of counter (FF + increment logic)
	ArbiterPerReq Float // per-requester cost of an arbiter
	ControlFSM    Float // fixed control overhead per submodule
}

// DefaultGateModel returns the calibrated primitive costs.
func DefaultGateModel() GateModel {
	return GateModel{
		FF:            5.0,
		SRAMBit:       1.6,
		Mux2PerBit:    1.75,
		CounterBit:    7.0,
		ArbiterPerReq: 9.0,
		ControlFSM:    260,
	}
}

// LinkWidth is the daelite/aelite data link width in bits: 32 payload + 3
// credit sideband + 1 valid.
const LinkWidth = 36

// crossbarGE prices a full crossbar: outputs x width bits, each an
// inputs:1 mux built from (inputs-1) mux2 legs.
func (m GateModel) crossbarGE(inputs, outputs, width int) Float {
	if inputs < 2 {
		return 0
	}
	return Float(outputs*width*(inputs-1)) * m.Mux2PerBit
}

// log2ceil returns ceil(log2(n)) with a floor of 1.
func log2ceil(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

// DaeliteRouterGE prices a daelite router: data buffered twice per hop
// (input + output registers), a slot table per output (input selector per
// slot), the blind TDM crossbar, the slot counter and the configuration
// submodule.
func (m GateModel) DaeliteRouterGE(ports, width, slot, slotWords int) Float {
	regs := Float(2*ports*width) * m.FF
	xbar := m.crossbarGE(ports, ports, width)
	tableBits := ports * slot * log2ceil(ports+1)
	table := Float(tableBits) * m.SRAMBit
	counter := Float(log2ceil(slot*slotWords)) * m.CounterBit
	cfg := m.ControlFSM + Float(3*7)*m.FF // decoder FSM + mask shift stages
	return regs + xbar + table + counter + cfg
}

// AeliteRouterGE prices an aelite router: three register stages, per-input
// header parsing and route shifting, the crossbar, and per-input packet
// state — but no slot tables (source routing keeps the state in NIs).
func (m GateModel) AeliteRouterGE(ports, width int) Float {
	regs := Float(3*ports*width) * m.FF
	xbar := m.crossbarGE(ports, ports, width)
	parse := Float(ports) * (m.ControlFSM*0.7 + Float(21)*m.Mux2PerBit) // header decode + route shift
	state := Float(ports*(4+3)) * m.FF                                  // payload count + output port
	arb := Float(ports) * m.ArbiterPerReq                               // output claim checking
	return regs + xbar + parse + state + arb
}

// VCRouterGE prices a virtual-channel router (artnoc, MANGO, Kavaldjiev):
// per-port per-VC buffers, VC state, per-output arbitration over
// ports x VCs requesters and a mux tree over all VCs.
func (m GateModel) VCRouterGE(ports, width, vcs, bufDepth int) Float {
	buffers := Float(ports*vcs*bufDepth*width) * m.SRAMBit
	bufCtl := Float(ports*vcs) * (m.ControlFSM * 0.35)
	xbar := m.crossbarGE(ports*vcs, ports, width)
	arb := Float(ports*ports*vcs) * m.ArbiterPerReq
	flow := Float(ports*vcs*8) * m.CounterBit
	return buffers + bufCtl + xbar + arb + flow
}

// SDMRouterGE prices a spatial-division router (Wolkotte, Banerjee): the
// link is split into lanes, each lane a circuit-switched sub-crossbar plus
// lane configuration registers.
func (m GateModel) SDMRouterGE(ports, width, lanes int) Float {
	laneWidth := width / lanes
	if laneWidth == 0 {
		laneWidth = 1
	}
	var total Float
	for i := 0; i < lanes; i++ {
		total += m.crossbarGE(ports, ports, laneWidth)
		total += Float(2*ports*laneWidth) * m.FF
		total += Float(ports*log2ceil(ports+1)) * m.SRAMBit * Float(lanes)
	}
	total += m.ControlFSM
	return total
}

// PacketRouterGE prices a plain best-effort packet-switched router
// (Wolkotte's packet-switched reference, SPIN, xpipes): input FIFOs, route
// computation, arbitration, crossbar.
func (m GateModel) PacketRouterGE(ports, width, bufDepth int) Float {
	buffers := Float(ports*bufDepth*width) * m.SRAMBit
	bufCtl := Float(ports) * (m.ControlFSM * 0.5)
	xbar := m.crossbarGE(ports, ports, width)
	route := Float(ports) * m.ControlFSM
	arb := Float(ports*ports) * m.ArbiterPerReq
	return buffers + bufCtl + xbar + route + arb
}

// DaeliteNIGE prices a daelite network interface: per-channel send/receive
// FIFOs, the TX/RX slot table, two credit counters per channel, the
// sideband credit (de)serializer and the configuration submodule.
func (m GateModel) DaeliteNIGE(channels, sendDepth, recvDepth, slot int) Float {
	queues := Float(channels*(sendDepth+recvDepth)*32) * m.SRAMBit
	queueCtl := Float(channels) * 2 * (Float(log2ceil(sendDepth)+log2ceil(recvDepth)) * m.CounterBit)
	tableBits := slot * (2 + log2ceil(channels))
	table := Float(tableBits) * m.SRAMBit
	credits := Float(channels*2*6) * m.CounterBit
	creditSerdes := Float(2*6)*m.FF + 40
	cfg := m.ControlFSM + Float(3*7)*m.FF
	shell := m.ControlFSM * 0.8 // DTL shell serialization
	return queues + queueCtl + table + credits + creditSerdes + cfg + shell
}

// AeliteNIGE prices an aelite network interface: the same queues, a TX
// slot table, per-channel source-route and remote-queue registers, header
// construction/parsing, and credit counters.
func (m GateModel) AeliteNIGE(channels, sendDepth, recvDepth, slot int) Float {
	queues := Float(channels*(sendDepth+recvDepth)*32) * m.SRAMBit
	queueCtl := Float(channels) * 2 * (Float(log2ceil(sendDepth)+log2ceil(recvDepth)) * m.CounterBit)
	tableBits := slot * (1 + log2ceil(channels))
	table := Float(tableBits) * m.SRAMBit
	routes := Float(channels*(21+4)) * m.FF
	credits := Float(channels*2*6) * m.CounterBit
	headerLogic := m.ControlFSM * 3.0       // header build on TX, parse on RX, credit extraction
	packetize := Float(2*LinkWidth) * m.FF  // (de)packetization pipeline registers
	reassembly := Float(channels*10) * m.FF // per-channel packet reassembly state
	shell := m.ControlFSM * 0.8
	return queues + queueCtl + table + routes + credits + headerLogic + packetize + reassembly + shell
}

// ConfigTreeGE prices daelite's dedicated configuration infrastructure for
// a network of n elements: the host module plus two 7-bit register stages
// per tree node in each direction.
func (m GateModel) ConfigTreeGE(elements int) Float {
	module := m.ControlFSM*2 + Float(32)*m.FF
	perNode := Float(2*7+2*8) * m.FF
	return module + Float(elements)*perNode
}

// AeliteConfigGE prices aelite's configuration unit at the host (the
// network-side cost is borne by the reserved slots, not by gates).
func (m GateModel) AeliteConfigGE() Float {
	return m.ControlFSM*2 + Float(64)*m.FF
}

// Um2 converts gate equivalents to µm² in a technology node.
func Um2(ge Float, t Tech) Float { return ge * t.NAND2um }

// Mm2 converts gate equivalents to mm².
func Mm2(ge Float, t Tech) Float { return Um2(ge, t) / 1e6 }

// Slices estimates Virtex-class FPGA slices: 8 flip-flops and 4 LUT6 per
// slice, with logic GEs mapped to LUTs at ~5.5 GE per LUT. Storage-heavy
// designs are FF-bound; logic-heavy ones LUT-bound.
func Slices(ffGE, logicGE Float, m GateModel) Float {
	ffs := ffGE / m.FF
	luts := logicGE / 5.5
	byFF := ffs / 8
	byLUT := luts / 4
	if byFF > byLUT {
		return byFF
	}
	return byLUT
}

// InterconnectSplit reports the FF-dominated and logic-dominated portions
// of a GE total, used by the FPGA slice estimate. ratio is the FF share.
func InterconnectSplit(total, ffShare Float) (ffGE, logicGE Float) {
	return total * ffShare, total * (1 - ffShare)
}

// MeshInterconnectGE prices a full WxH-mesh interconnect (routers + NIs +
// configuration infrastructure) for either network.
type MeshConfig struct {
	Width, Height  int
	Channels       int
	SendDepth      int
	RecvDepth      int
	Slots          int
	SlotWords      int
	PortsPerRouter func(x, y int) int // data ports incl. local NI
}

// meshPorts returns the default port count of a mesh router at (x, y):
// one local NI plus the existing neighbours.
func meshPorts(w, h, x, y int) int {
	p := 1
	if x > 0 {
		p++
	}
	if x < w-1 {
		p++
	}
	if y > 0 {
		p++
	}
	if y < h-1 {
		p++
	}
	return p
}

// DaeliteMeshGE prices a complete daelite mesh interconnect.
func (m GateModel) DaeliteMeshGE(c MeshConfig) Float {
	var total Float
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			p := meshPorts(c.Width, c.Height, x, y)
			total += m.DaeliteRouterGE(p, LinkWidth, c.Slots, c.SlotWords)
			total += m.DaeliteNIGE(c.Channels, c.SendDepth, c.RecvDepth, c.Slots)
		}
	}
	total += m.ConfigTreeGE(2 * c.Width * c.Height)
	return total
}

// AeliteMeshGE prices a complete aelite mesh interconnect.
func (m GateModel) AeliteMeshGE(c MeshConfig) Float {
	var total Float
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			p := meshPorts(c.Width, c.Height, x, y)
			total += m.AeliteRouterGE(p, LinkWidth)
			total += m.AeliteNIGE(c.Channels, c.SendDepth, c.RecvDepth, c.Slots)
		}
	}
	total += m.AeliteConfigGE()
	return total
}

// Reduction returns (other-ours)/other, the paper's Table II metric.
func Reduction(ours, other Float) Float {
	if other == 0 {
		return 0
	}
	return (other - ours) / other
}

// String helpers for reports.
func FormatMm2(v Float) string { return fmt.Sprintf("%.4f mm²", v) }

// EnergyModel prices the per-event switching energy of the datapath in
// picojoules, calibrated to 65 nm-class figures. Activity counts come
// from the cycle simulation; energy = sum(events x per-event cost).
type EnergyModel struct {
	// RegWritePJPerBit is the energy of clocking one register bit.
	RegWritePJPerBit Float
	// XbarPJPerBit is the energy of moving one bit through the crossbar.
	XbarPJPerBit Float
	// LinkPJPerBit is the energy of driving one bit over an
	// inter-router wire (1 mm class).
	LinkPJPerBit Float
	// HeaderDecodePJ is the control energy of parsing one header and
	// shifting the route (aelite only).
	HeaderDecodePJ Float

	// The remaining costs price the tile-side events of an accelerator
	// built around the NoC (the DNN workload packs): reading one word
	// from a shared memory tile, landing one delivered word in a
	// consumer tile's local buffer, and one multiply-accumulate.
	MMemReadPJPerWord  Float
	LMemWritePJPerWord Float
	MACPJ              Float
}

// DefaultEnergyModel returns the calibrated per-event costs.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		RegWritePJPerBit:   0.015,
		XbarPJPerBit:       0.020,
		LinkPJPerBit:       0.045,
		HeaderDecodePJ:     1.8,
		MMemReadPJPerWord:  18.0,
		LMemWritePJPerWord: 1.2,
		MACPJ:              0.9,
	}
}

// DaeliteHopPJ returns the energy of one word traversing one daelite hop:
// two register stages (link capture + crossbar output), the crossbar and
// the wire, for a width-bit word. No header, no decode.
func (e EnergyModel) DaeliteHopPJ(width int) Float {
	w := Float(width)
	return 2*e.RegWritePJPerBit*w + e.XbarPJPerBit*w + e.LinkPJPerBit*w
}
