package main

import (
	"errors"
	"fmt"
	"math/bits"
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
	fanoutReceivers = 8 // sessions, hence OIF bits per hot channel
	fanoutSinks     = 2 // sink sockets the sessions' DataPorts point at
	frameLimitMs    = 1000
	frameInFlight   = 2
	// frameLostAfter is how long a frame may stay incomplete before its
	// missing copies count as lost, a violation; between frameLimitMs and
	// this it is a failed operation.
	frameLostAfter = 5 * time.Second
)

// fanout is one router with its data plane, programmed only through
// sessions, replicating a source's frames to eight ports on two sinks.
type fanout struct {
	cfg   config
	r     *realnet.Router
	sess  []*realnet.Session
	sinks [fanoutSinks]*net.UDPConn
	hot   []addr.Channel
	holds map[addr.Channel]bool // what every sink subscribed to
	src   *probeSender
	sizes []int // payload size per frame position, the same every frame
	rng   *rand.Rand
	seq   uint32 // next sequence number to stamp
	cur   atomic.Pointer[fanWindow]
	late  atomic.Pointer[string] // a datagram that arrived between windows
	wg    sync.WaitGroup
}

// fanWindow tracks one measured phase's frames at the sinks.
type fanWindow struct {
	base      uint32
	frameLen  int
	traced    bool
	copies    [fanoutSinks][]atomic.Int32 // per sink, per sequence offset
	remaining []atomic.Int32              // copies still due, per frame
	firstAt   []atomic.Int64              // first copy, unix ns (traced)
	doneAt    []atomic.Int64              // last copy, unix ns
	tokens    chan struct{}               // frames that may be in flight
	bad       atomic.Pointer[string]      // first violation seen by a sink
}

func (w *fanWindow) violate(msg string) { w.bad.CompareAndSwap(nil, &msg) }

func setupFanout(cfg config, seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fanout{cfg: cfg, rng: rng, seq: 1}
	var err error
	if f.r, err = newRouter(""); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	for i := range f.sinks {
		if f.sinks[i], err = newSink(); err != nil {
			return nil, err
		}
	}
	shuffled := shuffledPopulation(cfg.channels, rng)
	f.hot = shuffled[:cfg.hot]
	f.holds = make(map[addr.Channel]bool, len(f.hot))
	for _, ch := range f.hot {
		f.holds[ch] = true
	}
	for i := 0; i < fanoutReceivers; i++ {
		s, err := realnet.DialSession(f.r.Addr(), sessionOpts(rng.Uint64()|1, udpPort(f.sinks[i*fanoutSinks/fanoutReceivers])))
		if err != nil {
			return nil, err
		}
		f.sess = append(f.sess, s)
		// Receiver 0 also holds the rest of the population, so the
		// hot set is spread over a full-size FIB.
		chans := f.hot
		if i == 0 {
			chans = shuffled
		}
		if err := populate(s, chans, f.r, nil); err != nil {
			return nil, fmt.Errorf("receiver %d: %w", i, err)
		}
	}
	if n := f.r.Channels(); n != cfg.channels {
		return nil, fmt.Errorf("router holds %d channels, want %d", n, cfg.channels)
	}
	for _, ch := range f.hot {
		if m := f.r.OIFMask(ch); bits.OnesCount32(m) != fanoutReceivers {
			return nil, fmt.Errorf("hot channel %v has OIF mask %#x, want %d bits", ch, m, fanoutReceivers)
		}
	}
	if f.src, err = newProbeSender(f.r.DataAddr()); err != nil {
		return nil, err
	}
	// The seeded 3:1 mix of 64-B and 1,200-B payloads, fixed per frame
	// position so every frame does identical work.
	f.sizes = make([]int, cfg.frameLen)
	for i, j := range rng.Perm(cfg.frameLen) {
		f.sizes[j] = 64
		if i%4 == 3 {
			f.sizes[j] = 1200
		}
	}
	for i := range f.sinks {
		f.wg.Add(1)
		go f.sinkLoop(i)
	}
	ok = true
	return f, nil
}

// sinkLoop is a passive receiver: it checks every datagram against what
// its sessions subscribed to and counts copies per sequence number.
func (f *fanout) sinkLoop(si int) {
	defer f.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, err := f.sinks[si].Read(buf)
		if err != nil {
			return // closed
		}
		f.deliver(si, buf[:n])
	}
}

func (f *fanout) deliver(si int, b []byte) {
	const ports = fanoutReceivers / fanoutSinks
	w := f.cur.Load()
	if w == nil {
		// A copy after its window drained is a duplicate.
		msg := "datagram outside a measured window"
		f.late.CompareAndSwap(nil, &msg)
		return
	}
	var pkt wire.DataPacket
	if _, err := pkt.DecodeFromBytes(b); err != nil {
		w.violate(fmt.Sprintf("sink %d: undecodable datagram: %v", si, err))
		return
	}
	if !f.holds[pkt.Channel] {
		w.violate(fmt.Sprintf("sink %d: datagram for unsubscribed channel %v", si, pkt.Channel))
		return
	}
	off := pkt.Seq - w.base
	if off >= uint32(len(w.copies[si])) {
		w.violate(fmt.Sprintf("sink %d: sequence %d outside the window", si, pkt.Seq))
		return
	}
	if w.copies[si][off].Add(1) > ports {
		w.violate(fmt.Sprintf("sink %d: sequence %d delivered more than %d times", si, pkt.Seq, ports))
		return
	}
	fr := int(off) / w.frameLen
	if w.traced {
		w.firstAt[fr].CompareAndSwap(0, time.Now().UnixNano())
	}
	if w.remaining[fr].Add(-1) == 0 {
		w.doneAt[fr].Store(time.Now().UnixNano())
		w.tokens <- struct{}{}
	}
}

func (f *fanout) measure(d time.Duration, traced bool) (*window, error) {
	period := time.Second / time.Duration(f.cfg.fps)
	frames := int(d/period) + 1
	fl := f.cfg.frameLen
	w := &fanWindow{
		base: f.seq, frameLen: fl, traced: traced,
		remaining: make([]atomic.Int32, frames),
		firstAt:   make([]atomic.Int64, frames),
		doneAt:    make([]atomic.Int64, frames),
		tokens:    make(chan struct{}, frameInFlight),
	}
	for i := range w.copies {
		w.copies[i] = make([]atomic.Int32, frames*fl)
	}
	for i := range w.remaining {
		w.remaining[i].Store(int32(fl * fanoutReceivers))
	}
	for i := 0; i < frameInFlight; i++ {
		w.tokens <- struct{}{}
	}
	f.cur.Store(w)
	defer f.cur.Store(nil)

	payload := make([]byte, 1200)
	woke := make([]time.Time, 0, frames)
	sent := make([]time.Time, 0, frames)
	out := &window{limitMs: frameLimitMs}
	start := time.Now()
	var stall error
	for i := 0; i < frames; i++ {
		at := start.Add(time.Duration(i) * period)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		// A frame's latency starts when the generator wakes for it, not
		// at its due time: an idle process's timer wakes up to 1 ms late,
		// which is the generator's own slop (reported as gen.late_p99_us),
		// not work of the program. Waiting for earlier frames counts.
		ready := time.Now()
		select {
		case <-w.tokens:
		default:
			out.deferred++
			select {
			case <-w.tokens:
			case <-time.After(frameLostAfter):
				stall = fmt.Errorf("frame %d: earlier frames incomplete after %v", i, frameLostAfter)
			}
		}
		if stall != nil {
			break
		}
		now := time.Now()
		woke, sent = append(woke, ready), append(sent, now)
		out.late = append(out.late, float64(now.Sub(at).Nanoseconds())/1e3)
		for j := 0; j < fl; j++ {
			ch := f.hot[f.rng.Intn(len(f.hot))]
			if err := f.src.send(ch, f.seq, payload[:f.sizes[j]]); err != nil {
				return nil, fmt.Errorf("source send: %w", err)
			}
			f.seq++
		}
	}
	// Drain: every frame in flight completes, or the window fails.
	for i := 0; i < frameInFlight && stall == nil; i++ {
		select {
		case <-w.tokens:
		case <-time.After(frameLostAfter):
			stall = errors.New("frames still incomplete at the end of the window")
		}
	}
	n := len(sent)
	out.scheduled, out.attempted, out.ops = n, n, n*fl
	var first, spread, waitMs []float64
	for i := 0; i < n; i++ {
		done := w.doneAt[i].Load()
		lat := float64(done-woke[i].UnixNano()) / 1e6
		if done == 0 || lat > frameLimitMs {
			out.fail(fmt.Sprintf("frame slower than the %d ms limit", frameLimitMs))
			out.lat = append(out.lat, frameLimitMs)
			continue
		}
		out.lat = append(out.lat, lat)
		if traced {
			fa := w.firstAt[i].Load()
			waitMs = append(waitMs, float64(sent[i].UnixNano()-woke[i].UnixNano())/1e6)
			first = append(first, float64(fa-sent[i].UnixNano())/1e6)
			spread = append(spread, float64(done-fa)/1e6)
			out.stageTotal = append(out.stageTotal, out.lat[len(out.lat)-1])
		}
	}
	if traced {
		out.stages = []stage{
			{"gen.inflight_wait_ms", waitMs, 1},
			{"dataplane.first_copy_ms_p50", first, 1},
			{"dataplane.spread_ms_p50", spread, 1},
		}
	}
	if p := w.bad.Load(); p != nil {
		return nil, violation("%s", *p)
	}
	// Each sink holds every hot channel through half the receivers, so
	// every sequence number must arrive exactly that many times at each.
	for si := range w.copies {
		for off := 0; off < n*fl; off++ {
			if c := w.copies[si][off].Load(); c != fanoutReceivers/fanoutSinks {
				return nil, violation("sink %d got sequence %d %d times, want %d", si, w.base+uint32(off), c, fanoutReceivers/fanoutSinks)
			}
		}
	}
	if stall != nil {
		return nil, violation("%v", stall)
	}
	return out, nil
}

func (f *fanout) verify() (int, error) {
	if p := f.late.Load(); p != nil {
		return 0, violation("%s", *p)
	}
	return 0, nil
}

func (f *fanout) routers() []*realnet.Router { return []*realnet.Router{f.r} }
func (f *fanout) lookupKeys() []addr.Channel { return f.hot }

func (f *fanout) close() {
	for _, s := range f.sess {
		s.Close()
	}
	if f.src != nil {
		f.src.conn.Close()
	}
	f.r.Close()
	for _, s := range f.sinks {
		if s != nil {
			s.Close()
		}
	}
	f.wg.Wait()
}
