package core

import (
	"fmt"

	"daelite/internal/topology"
)

// AddMulticastDestination grafts one more destination onto a live
// multicast connection using a partial-path set-up packet — the paper's
// "paths that start at a router instead of a source NI" (Fig. 7). The
// running stream to the existing destinations is not disturbed; the new
// destination starts receiving once the packet has settled. A graft
// that does not fit the staging queues stages nothing and is rolled
// back.
func (p *Platform) AddMulticastDestination(c *Connection, dst topology.NodeID) error {
	if err := p.liveTree(c); err != nil {
		return err
	}
	if _, err := p.Alloc.MulticastAttach(c.Tree, dst); err != nil {
		return err
	}
	ch, err := p.allocChannelPref(dst, -1)
	if err == nil {
		if err = p.buildBranch(c, dst, ch, true); err == nil {
			err = p.submit(nil)
		}
		if err != nil {
			p.freeChannel(dst, ch)
		}
	}
	if err != nil {
		if _, derr := p.Alloc.MulticastDetach(c.Tree, dst); derr != nil {
			return fmt.Errorf("core: %v (rollback failed: %v)", err, derr)
		}
		return err
	}
	c.DstChannels[dst] = ch
	c.Spec.Dsts = append(c.Spec.Dsts, dst)
	return nil
}

// RemoveMulticastDestination prunes one destination from a live multicast
// connection: the branch's slots are disabled destination-first with a
// partial tear-down packet, then released. A prune that does not fit the
// staging queues stages nothing and leaves the tree intact.
func (p *Platform) RemoveMulticastDestination(c *Connection, dst topology.NodeID) error {
	if err := p.liveTree(c); err != nil {
		return err
	}
	ch, ok := c.DstChannels[dst]
	if !ok {
		return fmt.Errorf("core: %v is not a destination of connection %d", p.Mesh.Node(dst).Name, c.ID)
	}
	if len(c.Tree.Dsts) == 1 {
		return fmt.Errorf("core: cannot remove the last destination of connection %d (close it instead)", c.ID)
	}
	if err := p.buildBranch(c, dst, ch, false); err != nil {
		return err
	}
	if err := p.submit(nil); err != nil {
		return err
	}
	if _, err := p.Alloc.MulticastDetach(c.Tree, dst); err != nil {
		return err
	}
	p.freeChannel(dst, ch)
	delete(c.DstChannels, dst)
	var dsts []topology.NodeID
	for _, d := range c.Spec.Dsts {
		if d != dst {
			dsts = append(dsts, d)
		}
	}
	c.Spec.Dsts = dsts
	return nil
}

// liveTree rejects graft and prune on a unicast or closed connection.
func (p *Platform) liveTree(c *Connection) error {
	if c.Tree == nil {
		return fmt.Errorf("core: connection %d is not multicast", c.ID)
	}
	if c.State == Closed {
		return fmt.Errorf("core: connection %d is closed", c.ID)
	}
	return nil
}
