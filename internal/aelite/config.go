package aelite

import (
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/topology"
)

// configOp is one memory-mapped register write to a remote NI.
type configOp struct {
	target topology.NodeID
	reg    uint32
	value  uint32
}

// ConfigUnit models aelite's centralized configuration: a unit next to the
// host NI that performs register writes on remote NIs by sending
// (register, value) messages over the network's pre-reserved configuration
// connections and waiting for the acknowledgement of each write before
// issuing the next. Set-up time therefore scales with the number of writes
// (slots used) and the distance to the target — the dependence the paper's
// Table III attributes to aelite.
type ConfigUnit struct {
	net   *Network
	queue []configOp
	state cuState
	ops   uint64
}

type cuState int

const (
	cuIdle cuState = iota
	cuWaitAck
)

func newConfigUnit(s *sim.Simulator, net *Network) *ConfigUnit {
	u := &ConfigUnit{net: net}
	s.Add(u)
	return u
}

// Name implements sim.Component.
func (u *ConfigUnit) Name() string { return "aelite-config-unit" }

// enqueue appends operations to the work queue.
func (u *ConfigUnit) enqueue(ops []configOp) {
	u.queue = append(u.queue, ops...)
}

// Idle reports whether all queued operations have completed.
func (u *ConfigUnit) Idle() bool { return u.state == cuIdle && len(u.queue) == 0 }

// Ops returns the number of completed operations.
func (u *ConfigUnit) Ops() uint64 { return u.ops }

// Eval implements sim.Component.
func (u *ConfigUnit) Eval(cycle uint64) {
	host := u.net.NIs[u.net.HostNI]
	ch := u.net.ConfigChannel
	switch u.state {
	case cuIdle:
		if len(u.queue) == 0 {
			return
		}
		op := u.queue[0]
		u.queue = u.queue[1:]
		if op.target == u.net.HostNI {
			// Local writes need no network transaction.
			host.applyReg(op.reg, op.value)
			u.ops++
			return
		}
		cr := u.net.cfgRoutes[op.target]
		host.SetRoute(ch, cr.route, u.net.ConfigChannel)
		host.Send(ch, phit.Word(op.reg))
		host.Send(ch, phit.Word(op.value))
		u.state = cuWaitAck
	case cuWaitAck:
		if host.RecvLen(ch) > 0 {
			host.Recv(ch)
			u.ops++
			u.state = cuIdle
		}
	}
}
