package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/addr"
	"repro/internal/realnet"
	"repro/internal/wire"
)

// Channel spaces keep each workload's key sets disjoint: the population
// every router holds, the fresh channels joins and the defect probe use,
// and the flapping session's own channels.
const (
	spacePopulation = iota
	spaceJoin
	spaceFlapOwn
	spaceArrival
)

// chanOf is channel i of a space: source 10.space.x.y, destination in 232/8.
func chanOf(space, i int) addr.Channel {
	return addr.Channel{
		S: addr.Addr(0x0A000000 | uint32(space)<<16 | uint32(i>>12)&0xffff),
		E: addr.ExpressAddr(uint32(i)),
	}
}

func chanKey(ch addr.Channel) uint64 { return uint64(ch.S)<<32 | uint64(ch.E) }

func newRouter(upstream string) (*realnet.Router, error) {
	return realnet.NewRouterOpts("127.0.0.1:0", realnet.Options{Upstream: upstream, DataListen: "127.0.0.1:0"})
}

// sessionOpts fixes the client side: a small, fixed reconnect backoff, so
// flap recovery measures the router rather than client jitter.
func sessionOpts(id uint64, dataPort uint16) realnet.SessionOptions {
	return realnet.SessionOptions{
		SessionID:     id,
		DataPort:      dataPort,
		ReconnectBase: time.Millisecond,
		ReconnectMax:  time.Millisecond,
	}
}

var errTimeout = errors.New("timed out")

// waitUntil polls cond every interval until it holds. Set-up, the
// correctness checks and the flap workload's core-agreement stage, which no
// router event signals, use it; every other measured stage waits on events.
func waitUntil(timeout, interval time.Duration, cond func() bool) error {
	end := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(end) {
			return errTimeout
		}
		time.Sleep(interval)
	}
	return nil
}

// tree is the two-router topology of churn and flap: an edge router with
// the core as its upstream, both with data planes.
type tree struct {
	core, edge *realnet.Router
}

func newTree() (*tree, error) {
	core, err := newRouter("")
	if err != nil {
		return nil, err
	}
	edge, err := newRouter(core.Addr())
	if err != nil {
		core.Close()
		return nil, err
	}
	return &tree{core: core, edge: edge}, nil
}

func (t *tree) close() {
	t.edge.Close()
	t.core.Close()
}

// populate subscribes s to chans in paced chunks: each chunk is flushed and
// applied at every router in rs (edge first, then its upstream) before the
// next is sent. Pacing keeps the edge's bounded upstream queue from
// dropping segments, which are never resent (NOTES.md, known defects);
// set-up is preparation, so it may wait on the defect.
func populate(s *realnet.Session, chans []addr.Channel, edge, core *realnet.Router) error {
	const chunk = 4096
	edgeBase := edge.Events()
	coreBase := 0
	if core != nil {
		coreBase = core.Channels()
	}
	for lo := 0; lo < len(chans); lo += chunk {
		hi := min(lo+chunk, len(chans))
		for _, ch := range chans[lo:hi] {
			if err := s.Subscribe(ch); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
		if err := waitUntil(10*time.Second, 100*time.Microsecond, func() bool { return edge.Events() >= edgeBase+uint64(hi) }); err != nil {
			return fmt.Errorf("edge applied %d of %d subscriptions: %w", edge.Events()-edgeBase, hi, err)
		}
		if core != nil {
			if err := waitUntil(10*time.Second, 100*time.Microsecond, func() bool { return core.Channels() >= coreBase+hi }); err != nil {
				return fmt.Errorf("core holds %d of %d channels: %w", core.Channels()-coreBase, hi, err)
			}
		}
	}
	return nil
}

// probeSender writes single data packets to a router's data plane.
type probeSender struct {
	conn *net.UDPConn
	buf  []byte
}

func newProbeSender(target string) (*probeSender, error) {
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	if err := c.SetWriteBuffer(4 << 20); err != nil {
		c.Close()
		return nil, err
	}
	return &probeSender{conn: c}, nil
}

func (p *probeSender) send(ch addr.Channel, seq uint32, payload []byte) error {
	pkt := wire.DataPacket{Channel: ch, Seq: seq, Payload: payload}
	p.buf = pkt.AppendTo(p.buf[:0])
	_, err := p.conn.Write(p.buf)
	return err
}

// newSink opens a passive UDP sink with a receive buffer deep enough for
// the in-flight frames, so the sink's own socket never drops.
func newSink() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if err := c.SetReadBuffer(4 << 20); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func udpPort(c *net.UDPConn) uint16 { return uint16(c.LocalAddr().(*net.UDPAddr).Port) }

// shuffledPopulation returns the population channels in seeded order; its
// prefixes are the seeded subsets the workloads draw from (hot set, Zipf
// ranks, the flapping session's shared half).
func shuffledPopulation(n int, rng *rand.Rand) []addr.Channel {
	out := make([]addr.Channel, n)
	for i, j := range rng.Perm(n) {
		out[i] = chanOf(spacePopulation, j)
	}
	return out
}

func population(n int) []addr.Channel {
	out := make([]addr.Channel, n)
	for i := range out {
		out[i] = chanOf(spacePopulation, i)
	}
	return out
}
