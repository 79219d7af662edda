package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/realnet"
)

const (
	flapLimitMs = 2000
	// agreePoll is the interval of the core-agrees-with-edge check, the one
	// stage no router event signals; it is small against a flap's ~20 ms.
	agreePoll = 100 * time.Microsecond

	causeNoOIF    = "arrival got no OIF bit at the edge (neighbor-id defect: ids are never recycled, ids >= 32 get no bit)"
	causeSlowFlap = "flap slower than the 2,000 ms limit"
)

// flap is the two-router tree with a stable session holding the
// population and a flapping session, dialled through a FaultConn, holding
// half shared and half own channels.
type flap struct {
	cfg    config
	t      *tree
	rng    *rand.Rand
	stable *realnet.Session
	fs     *realnet.Session
	chans  []addr.Channel          // the flapping session's channels
	want   map[addr.Channel]uint32 // their edge counts when restored
	fbit   uint32                  // the flapping session's OIF bit at the edge
	conn   atomic.Pointer[realnet.FaultConn]
	dialAt atomic.Int64 // last (re)dial of the flapping session, unix ns

	withdrawn, restored   atomic.Int32
	withdrawAt, restoreAt atomic.Int64
	restoreCh             chan struct{}

	baseEdge, baseCore int // Channels() with no arrival present
}

func setupFlap(cfg config, seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	t, err := newTree()
	if err != nil {
		return nil, err
	}
	f := &flap{cfg: cfg, t: t, rng: rng, restoreCh: make(chan struct{}, 1)}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	if f.stable, err = realnet.DialSession(t.edge.Addr(), sessionOpts(rng.Uint64()|1, 0)); err != nil {
		return nil, err
	}
	if err := populate(f.stable, population(cfg.channels), t.edge, t.core); err != nil {
		return nil, err
	}
	half := cfg.flapChans / 2
	f.chans = append(f.chans, shuffledPopulation(cfg.channels, rng)[:half]...)
	for i := 0; i < cfg.flapChans-half; i++ {
		f.chans = append(f.chans, chanOf(spaceFlapOwn, i))
	}
	f.want = make(map[addr.Channel]uint32, len(f.chans))
	for i, ch := range f.chans {
		f.want[ch] = 1
		if i < half {
			f.want[ch] = 2
		}
	}
	opts := sessionOpts(rng.Uint64()|1, 0)
	opts.Dial = realnet.FaultDialer(func(c *realnet.FaultConn) {
		f.conn.Store(c)
		f.dialAt.Store(time.Now().UnixNano())
	})
	if f.fs, err = realnet.DialSession(t.edge.Addr(), opts); err != nil {
		return nil, err
	}
	if err := populate(f.fs, f.chans, t.edge, nil); err != nil {
		return nil, err
	}
	if err := f.waitAgree(f.chans, 10*time.Second); err != nil {
		return nil, fmt.Errorf("flapping session's channels: %w", err)
	}
	f.fbit = t.edge.OIFMask(f.chans[len(f.chans)-1])
	if bits.OnesCount32(f.fbit) != 1 {
		return nil, fmt.Errorf("flapping session's own channel has OIF mask %#x", f.fbit)
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	f.baseEdge, f.baseCore = t.edge.Channels(), t.core.Channels()
	n := int32(len(f.chans))
	t.edge.SetRouteObserver(func(ch addr.Channel, mask uint32) {
		if _, mine := f.want[ch]; !mine {
			return
		}
		if mask&f.fbit == 0 {
			if f.withdrawn.Add(1) == n {
				f.withdrawAt.Store(time.Now().UnixNano())
			}
		} else if f.restored.Add(1) == n {
			f.restoreAt.Store(time.Now().UnixNano())
			select {
			case f.restoreCh <- struct{}{}:
			default:
			}
		}
	})
	ok = true
	return f, nil
}

// waitAgree polls until the core agrees with the edge on every channel of
// chans. A scan can read a core count that predates a withdrawal still in
// flight upstream, so agreement also needs the core to have applied every
// Count the edge's batcher had sent before the scan (the core's only
// neighbor is the edge), and ends with one full pass. Once the edge has
// dropped upstream segments, which are never resent, the count condition
// can never hold and is skipped.
func (f *flap) waitAgree(chans []addr.Channel, timeout time.Duration) error {
	disagree := func(in []addr.Channel) []addr.Channel {
		var out []addr.Channel
		for _, ch := range in {
			if f.t.core.SubscriberCount(ch) != f.t.edge.SubscriberCount(ch) {
				out = append(out, ch)
			}
		}
		return out
	}
	pending := chans
	err := waitUntil(timeout, agreePoll, func() bool {
		if st := f.t.edge.Stats(); st.UpstreamDrops == 0 && f.t.core.Events() < st.UpstreamCounts {
			return false
		}
		if pending = disagree(pending); len(pending) > 0 {
			return false
		}
		pending = disagree(chans)
		return len(pending) == 0
	})
	if err != nil {
		return fmt.Errorf("core disagrees with the edge on %d of %d channels: %w", len(pending), len(chans), err)
	}
	return nil
}

// check is the per-flap correctness check: every channel of the flapping
// session has its edge count and the session's OIF bit, and the core
// agrees with the edge.
func (f *flap) check() error {
	for _, ch := range f.chans {
		e := f.t.edge.SubscriberCount(ch)
		if e != f.want[ch] {
			return violation("flap: edge count %d on %v, want %d", e, ch, f.want[ch])
		}
		if f.t.edge.OIFMask(ch)&f.fbit == 0 {
			return violation("flap: %v lost the flapping session's OIF bit %#x", ch, f.fbit)
		}
		if c := f.t.core.SubscriberCount(ch); c != e {
			return violation("flap: core count %d on %v, edge %d", c, ch, e)
		}
	}
	return nil
}

func (f *flap) measure(d time.Duration, traced bool) (*window, error) {
	out := &window{limitMs: flapLimitMs, kinds: map[string]int{}}
	var withdraw, reconnect, edgeRestore, coreRestore []float64
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		out.ops++
		out.kinds["flap"]++
		lat, st, cause, err := f.flapOnce()
		if err != nil {
			return nil, err
		}
		if cause != "" {
			out.fail(cause)
			lat = flapLimitMs
		} else if traced {
			withdraw = append(withdraw, st[0])
			reconnect = append(reconnect, st[1])
			edgeRestore = append(edgeRestore, st[2])
			coreRestore = append(coreRestore, st[3])
			out.stageTotal = append(out.stageTotal, lat)
		}
		out.lat = append(out.lat, lat)
	}
	out.attempted = out.ops
	if traced {
		out.stages = []stage{
			{"flap.withdraw_ms_p50", withdraw, 1},
			{"flap.reconnect_ms_p50", reconnect, 1},
			{"flap.edge_restore_ms_p50", edgeRestore, 1},
			{"flap.core_restore_ms_p50", coreRestore, 1},
		}
	}
	return out, nil
}

// flapOnce resets the flapping session's connection and waits for the
// edge's route observer to see every channel lose and regain the session's
// OIF bit, then for the core to agree. It returns the recovery in ms, or
// the cause when it failed, and its stages in ms, which add up to it:
// withdraw (reset to the edge's sweep done), reconnect (the part of the
// redial not hidden behind the sweep), edge restore (to every route
// restored) and core restore (to the core agreeing).
func (f *flap) flapOnce() (float64, [4]float64, string, error) {
	var st [4]float64
	f.withdrawn.Store(0)
	f.restored.Store(0)
	f.withdrawAt.Store(0)
	f.restoreAt.Store(0)
	select {
	case <-f.restoreCh:
	default:
	}
	t0 := time.Now()
	f.conn.Load().Reset()
	timeout := time.NewTimer(flapLimitMs * time.Millisecond)
	defer timeout.Stop()
	failed := false
	select {
	case <-f.restoreCh:
	case <-timeout.C:
		failed = true
	}
	if !failed {
		if err := f.waitAgree(f.chans, time.Until(t0.Add(flapLimitMs*time.Millisecond))); err != nil {
			failed = true
		}
	}
	tc := time.Now()
	if failed {
		// Let it recover before the next operation; one that never
		// does is a violation.
		if err := waitUntil(5*time.Second, time.Millisecond, func() bool { return f.restored.Load() == int32(len(f.chans)) }); err != nil {
			return 0, st, "", violation("flap: the session's routes were not restored within %d ms", flapLimitMs+5000)
		}
		if err := f.waitAgree(f.chans, 5*time.Second); err != nil {
			if f.t.edge.Stats().UpstreamDrops > 0 {
				return 0, st, causeNoResend, nil // a failure, not a violation
			}
			return 0, st, "", violation("flap: %v", err)
		}
		return 0, st, causeSlowFlap, f.check()
	}
	if err := f.check(); err != nil {
		return 0, st, "", err
	}
	tw, tr, te := f.withdrawAt.Load(), f.dialAt.Load(), f.restoreAt.Load()
	back := max(tw, tr)
	st[0] = float64(tw-t0.UnixNano()) / 1e6
	st[1] = float64(back-tw) / 1e6
	st[2] = float64(te-back) / 1e6
	st[3] = float64(tc.UnixNano()-te) / 1e6
	return float64(tc.UnixNano()-t0.UnixNano()) / 1e6, st, "", nil
}

// probeDefect is the arrival of a fresh session once the set-up's flaps
// have used up neighbor ids: it subscribes to its own channels, waits until
// edge and core hold them, checks their OIF bits, then closes (the
// departure) and waits for both routers to drop its state. It returns
// causeNoOIF when the arrival got no OIF bit (the neighbor-id defect), ""
// when it got one; an arrival that never converges or a departure that does
// not clear both routers is a violation.
func (f *flap) probeDefect() (string, error) {
	chans := make([]addr.Channel, f.cfg.flapChans)
	for i := range chans {
		chans[i] = chanOf(spaceArrival, i)
	}
	s, err := realnet.DialSession(f.t.edge.Addr(), sessionOpts(f.rng.Uint64()|1, 0))
	if err != nil {
		return "", fmt.Errorf("arrival: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	for _, ch := range chans {
		if err := s.Subscribe(ch); err != nil {
			return "", err
		}
	}
	if err := s.Flush(); err != nil {
		return "", err
	}
	pending := chans
	held := func() bool {
		keep := pending[:0:0] // chans itself is read again below
		for _, ch := range pending {
			if f.t.edge.SubscriberCount(ch) != 1 || f.t.core.SubscriberCount(ch) != 1 {
				keep = append(keep, ch)
			}
		}
		pending = keep
		return len(pending) == 0
	}
	if waitUntil(flapLimitMs*time.Millisecond+5*time.Second, agreePoll, held) != nil {
		return "", violation("arrival: %d of %d channels not held by edge and core after %d ms", len(pending), len(chans), flapLimitMs+5000)
	}
	cause := ""
	for _, ch := range chans {
		if f.t.edge.OIFMask(ch) == 0 {
			cause = causeNoOIF
			break
		}
	}
	closed = true
	if err := s.Close(); err != nil {
		return "", fmt.Errorf("arrival close: %w", err)
	}
	if err := waitUntil(5*time.Second, agreePoll, func() bool {
		return f.t.edge.Channels() == f.baseEdge && f.t.core.Channels() == f.baseCore
	}); err != nil {
		return "", violation("departure: edge holds %d channels, core %d; want %d and %d",
			f.t.edge.Channels(), f.t.core.Channels(), f.baseEdge, f.baseCore)
	}
	return cause, nil
}

func (f *flap) verify() (int, error) { return 0, f.check() }

func (f *flap) routers() []*realnet.Router { return []*realnet.Router{f.t.core, f.t.edge} }

func (f *flap) lookupKeys() []addr.Channel { return f.chans }

func (f *flap) close() {
	for _, s := range []*realnet.Session{f.stable, f.fs} {
		if s != nil {
			s.Close()
		}
	}
	f.t.close()
}
