package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/realnet"
	"repro/internal/wire"
)

const (
	joinLimitMs = 200
	zipfS       = 1.2
	// churnTick is the generator's sleep between sends: it wakes, sends
	// every toggle that has come due and flushes, never busy-polling.
	churnTick = time.Millisecond
)

// churn is the two-router tree holding the population, under an open-loop
// stream of Zipf-keyed subscribe/unsubscribe toggles from one session and
// closed-loop joins of fresh channels from a second.
type churn struct {
	cfg      config
	t        *tree
	pop      *realnet.Session // holds the population; idle after set-up
	gen      *realnet.Session // the toggles
	viewer   *realnet.Session // the joins
	viewSink *net.UDPConn
	probe    *probeSender // to the core's data plane
	keys     []addr.Channel
	zipf     *rand.Zipf
	desired  []uint8 // the generator's count per Zipf rank
	touched  []bool
	joins    int // join channels used so far

	joinKey atomic.Uint64 // channel of the join in progress
	edgeAt  atomic.Int64  // edge installed its route, unix ns (traced)
	coreAt  atomic.Int64  // core installed its route, unix ns
	coreCh  chan struct{}
	rxCh    chan probeRx
	bad     atomic.Pointer[string]
	wg      sync.WaitGroup
}

type probeRx struct {
	seq uint32
	at  time.Time
}

func setupChurn(cfg config, seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	t, err := newTree()
	if err != nil {
		return nil, err
	}
	c := &churn{cfg: cfg, t: t, coreCh: make(chan struct{}, 1), rxCh: make(chan probeRx, 1)}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	if c.pop, err = realnet.DialSession(t.edge.Addr(), sessionOpts(rng.Uint64()|1, 0)); err != nil {
		return nil, err
	}
	if err := populate(c.pop, population(cfg.channels), t.edge, t.core); err != nil {
		return nil, err
	}
	if c.viewSink, err = newSink(); err != nil {
		return nil, err
	}
	if c.gen, err = realnet.DialSession(t.edge.Addr(), sessionOpts(rng.Uint64()|1, 0)); err != nil {
		return nil, err
	}
	if c.viewer, err = realnet.DialSession(t.edge.Addr(), sessionOpts(rng.Uint64()|1, udpPort(c.viewSink))); err != nil {
		return nil, err
	}
	if c.probe, err = newProbeSender(t.core.DataAddr()); err != nil {
		return nil, err
	}
	// Zipf rank r toggles keys[r]: a seeded permutation spreads the hot
	// ranks over the table.
	c.keys = shuffledPopulation(cfg.channels, rng)
	c.zipf = rand.NewZipf(rng, zipfS, 1, uint64(cfg.channels-1))
	c.desired = make([]uint8, cfg.channels)
	c.touched = make([]bool, cfg.channels)
	t.core.SetRouteObserver(func(ch addr.Channel, mask uint32) {
		if mask != 0 && chanKey(ch) == c.joinKey.Load() {
			c.coreAt.Store(time.Now().UnixNano())
			select {
			case c.coreCh <- struct{}{}:
			default:
			}
		}
	})
	c.wg.Add(1)
	go c.sinkLoop()
	ok = true
	return c, nil
}

// sinkLoop receives the join probes at the viewer's data port.
func (c *churn) sinkLoop() {
	defer c.wg.Done()
	buf := make([]byte, 2048)
	var pkt wire.DataPacket
	for {
		n, err := c.viewSink.Read(buf)
		if err != nil {
			return
		}
		at := time.Now()
		if _, err := pkt.DecodeFromBytes(buf[:n]); err != nil {
			msg := fmt.Sprintf("viewer sink: undecodable datagram: %v", err)
			c.bad.CompareAndSwap(nil, &msg)
			continue
		}
		if pkt.Channel != chanOf(spaceJoin, int(pkt.Seq)) {
			msg := fmt.Sprintf("viewer sink: probe %d on channel %v it never joined", pkt.Seq, pkt.Channel)
			c.bad.CompareAndSwap(nil, &msg)
			continue
		}
		select {
		case c.rxCh <- probeRx{pkt.Seq, at}:
		default:
		}
	}
}

func (c *churn) measure(d time.Duration, traced bool) (*window, error) {
	out := &window{limitMs: joinLimitMs, layers: map[string]float64{}}
	if traced {
		c.t.edge.SetRouteObserver(func(ch addr.Channel, mask uint32) {
			if mask != 0 && chanKey(ch) == c.joinKey.Load() {
				c.edgeAt.Store(time.Now().UnixNano())
			}
		})
		defer c.t.edge.SetRouteObserver(nil)
	}
	unmatched0 := c.t.core.DataPlane().Stats().FIB.UnmatchedDrops
	start := time.Now()
	end := start.Add(d)

	var (
		wg      sync.WaitGroup
		genErr  error
		sent    int
		flushUs []float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rate := float64(c.cfg.churnRate)
		for {
			now := time.Now()
			if !now.Before(end) {
				return
			}
			due := int(now.Sub(start).Seconds() * rate)
			if due > sent {
				late := now.Sub(start.Add(time.Duration(float64(sent) / rate * 1e9)))
				out.late = append(out.late, float64(late.Nanoseconds())/1e3)
				out.scheduled++
				if late > 2*churnTick {
					out.deferred++
				}
				for ; sent < due; sent++ {
					r := c.zipf.Uint64()
					c.desired[r] ^= 1
					c.touched[r] = true
					if err := c.gen.SendCount(c.keys[r], uint32(c.desired[r])); err != nil {
						genErr = err
						return
					}
				}
				t0 := time.Now()
				if err := c.gen.Flush(); err != nil {
					genErr = err
					return
				}
				if traced {
					flushUs = append(flushUs, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
			time.Sleep(churnTick)
		}
	}()

	var edgeUs, coreUs, deliverUs, restUs []float64
	joins := 0
	for time.Now().Before(end) {
		lat, st, err := c.join()
		if err != nil {
			wg.Wait()
			return nil, err
		}
		joins++
		if lat < 0 {
			out.fail(fmt.Sprintf("join got no probe within the %d ms limit", joinLimitMs))
			lat = joinLimitMs
		} else if traced {
			edgeUs = append(edgeUs, st[0])
			coreUs = append(coreUs, st[1])
			deliverUs = append(deliverUs, st[2])
			restUs = append(restUs, lat*1e3-st[0]-st[1]-st[2])
			out.stageTotal = append(out.stageTotal, lat)
		}
		out.lat = append(out.lat, lat)
	}
	wg.Wait()
	if genErr != nil {
		return nil, fmt.Errorf("churn session: %w", genErr)
	}
	if p := c.bad.Load(); p != nil {
		return nil, violation("%s", *p)
	}
	out.ops = sent
	out.attempted = sent + joins
	out.kinds = map[string]int{"event": sent, "join": joins}
	if traced {
		out.layers["realnet.session_flush_us_p50"] = percentile(flushUs, 0.5)
		out.layers["fib.unmatched_per_join"] = ratio(float64(c.t.core.DataPlane().Stats().FIB.UnmatchedDrops-unmatched0), float64(joins))
		out.stages = []stage{
			{"join.edge_install_us_p50", edgeUs, 1e-3},
			{"join.core_install_us_p50", coreUs, 1e-3},
			{"join.deliver_us_p50", deliverUs, 1e-3},
			{"join.unaccounted_us_p50", restUs, 1e-3},
		}
	}
	return out, nil
}

// join subscribes the viewer to a fresh channel, waits for the core's
// route observer, sends one probe to the core's data plane and waits for it
// at the viewer's sink, then unsubscribes. It returns the join latency in
// ms (negative when it failed) and, in us, the edge install (subscribe to
// edge route), core install (edge route to core route) and delivery (probe
// sent to received) stages.
func (c *churn) join() (float64, [3]float64, error) {
	var st [3]float64
	seq := c.joins
	c.joins++
	ch := chanOf(spaceJoin, seq)
	c.edgeAt.Store(0)
	c.coreAt.Store(0)
	select {
	case <-c.coreCh:
	default:
	}
	c.joinKey.Store(chanKey(ch))
	defer c.joinKey.Store(0)
	timeout := time.NewTimer(joinLimitMs * time.Millisecond)
	defer timeout.Stop()

	t0 := time.Now()
	if err := c.viewer.Subscribe(ch); err != nil {
		return 0, st, err
	}
	if err := c.viewer.Flush(); err != nil {
		return 0, st, err
	}
	lat := -1.0
	select {
	case <-c.coreCh:
		tp := time.Now()
		if err := c.probe.send(ch, uint32(seq), nil); err != nil {
			return 0, st, err
		}
	wait:
		for {
			select {
			case rx := <-c.rxCh:
				if rx.seq != uint32(seq) {
					continue // a probe of an earlier, timed-out join
				}
				lat = float64(rx.at.UnixNano()-t0.UnixNano()) / 1e6
				core, edge := c.coreAt.Load(), c.edgeAt.Load()
				st[0] = float64(edge-t0.UnixNano()) / 1e3
				st[1] = float64(core-edge) / 1e3
				st[2] = float64(rx.at.UnixNano()-tp.UnixNano()) / 1e3
				break wait
			case <-timeout.C:
				break wait
			}
		}
	case <-timeout.C:
	}
	if err := c.viewer.Unsubscribe(ch); err != nil {
		return 0, st, err
	}
	return lat, st, c.viewer.Flush()
}

// verify waits for the tree to settle, then checks that the edge holds the
// generator's desired count on every touched channel (the population's 1
// plus the toggle), that no join channel kept state, and that the core
// agrees with the edge everywhere. A core that disagrees after the edge's
// upstream queue dropped segments is the known no-resend defect and counts
// as failed operations; without drops it is a violation.
func (c *churn) verify() (int, error) {
	if p := c.bad.Load(); p != nil {
		return 0, violation("%s", *p)
	}
	var checks []addr.Channel
	var want []uint32
	for r, t := range c.touched {
		if t {
			checks = append(checks, c.keys[r])
			want = append(want, 1+uint32(c.desired[r]))
		}
	}
	for i := 0; i < c.joins; i++ {
		checks = append(checks, chanOf(spaceJoin, i))
		want = append(want, 0)
	}
	edgeOK := func() int {
		bad := 0
		for i, ch := range checks {
			if c.t.edge.SubscriberCount(ch) != want[i] {
				bad++
			}
		}
		return bad
	}
	coreOK := func() int {
		bad := 0
		for _, ch := range checks {
			if c.t.core.SubscriberCount(ch) != c.t.edge.SubscriberCount(ch) {
				bad++
			}
		}
		return bad
	}
	if waitUntil(5*time.Second, time.Millisecond, func() bool { return edgeOK() == 0 }) != nil {
		return 0, violation("edge disagrees with the generator's desired state on %d of %d channels", edgeOK(), len(checks))
	}
	if waitUntil(5*time.Second, time.Millisecond, func() bool { return coreOK() == 0 }) != nil {
		n := coreOK()
		if drops := c.t.edge.Stats().UpstreamDrops; drops > 0 {
			return n, nil
		}
		return 0, violation("core disagrees with the edge on %d of %d channels with no upstream drops", n, len(checks))
	}
	return 0, nil
}

func (c *churn) routers() []*realnet.Router { return []*realnet.Router{c.t.core, c.t.edge} }

// lookupKeys are the Zipf-hottest channels, the FIB entries churn writes.
func (c *churn) lookupKeys() []addr.Channel { return c.keys[:min(4096, len(c.keys))] }

func (c *churn) close() {
	for _, s := range []*realnet.Session{c.pop, c.gen, c.viewer} {
		if s != nil {
			s.Close()
		}
	}
	if c.probe != nil {
		c.probe.conn.Close()
	}
	c.t.close()
	if c.viewSink != nil {
		c.viewSink.Close()
	}
	c.wg.Wait()
}
