package msgpass

// The reliability protocol that lets the Section 7 machine keep its
// correctness over a faulty network (internal/faultnet). The paper's
// pre-emption rule already makes the machine idempotent against *stale*
// traffic; this layer adds what the rule cannot give:
//
//   - Loss: every data frame carries a globally unique sequence number
//     and is retransmitted with exponential backoff until acknowledged.
//   - Duplication: receivers acknowledge every copy (the ack itself may
//     have been lost) but deliver each sequence number once.
//   - Crash: a monitor emits heartbeats on behalf of each processor
//     through the same lossy network; silence beyond DeadAfter declares
//     the processor dead, reassigns its zone levels to a surviving
//     adopter, and broadcasts the reassignment so parents re-issue the
//     child invocations that died with it. A processor that was declared
//     dead wrongly (a long stall) is fenced: on hearing its own death it
//     drops all state and goes silent, so the adopter's recovery is never
//     raced.
//   - Lost values: markReported memoizes each reported value, so a
//     re-issued invocation for an already-solved node is answered from
//     the memo instead of being silently dropped (the original val(v) may
//     have died with its crashed recipient).
//
// Retransmits of level-addressed frames re-resolve the owning processor,
// so traffic redirected by a reassignment reaches the adopter. All of
// this sits behind Options.Net: when nil, the machine keeps its direct
// in-process path and the only cost is one nil check per send.

import (
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/faultnet"
	"gametree/internal/telemetry"
)

// ProtocolConfig tunes the reliability protocol. Zero fields take the
// defaults noted on each knob.
type ProtocolConfig struct {
	// HeartbeatEvery is the heartbeat emission period (default 2ms).
	HeartbeatEvery time.Duration
	// DeadAfter is the heartbeat silence after which a processor is
	// declared dead (default 30ms). Must comfortably exceed
	// HeartbeatEvery plus the network's delay bound, or stalls and
	// unlucky drop runs will fence healthy processors — recoverable, but
	// wasteful.
	DeadAfter time.Duration
	// RetransmitAfter is the initial ack timeout (default 2ms); the
	// backoff doubles per retransmission up to RetransmitMax (default
	// 20ms).
	RetransmitAfter time.Duration
	RetransmitMax   time.Duration
}

func (c ProtocolConfig) withDefaults() ProtocolConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 30 * time.Millisecond
	}
	if c.RetransmitAfter <= 0 {
		c.RetransmitAfter = 2 * time.Millisecond
	}
	if c.RetransmitMax <= 0 {
		c.RetransmitMax = 20 * time.Millisecond
	}
	return c
}

// ProtocolStats reports the reliability-protocol traffic of one run.
type ProtocolStats struct {
	Retransmits      int64 // data frames re-sent after an ack timeout
	Heartbeats       int64 // heartbeats emitted
	Deaths           int64 // processors declared dead
	LevelsReassigned int64 // levels adopted by survivors
	DupDropped       int64 // duplicate deliveries suppressed by sequence number
	MemoReplies      int64 // re-issued invocations answered from the value memo
}

// reassignCmd is the payload of a msgReassign control message: dead's
// levels now belong to adopter.
type reassignCmd struct {
	dead    int
	adopter int
	levels  []int
}

type wireKind uint8

const (
	wireData wireKind = iota // a machine message (or reassign control)
	wireAck                  // acknowledges one data sequence number
	wireBeat                 // heartbeat
)

// frame is what actually crosses the faultnet: a wire kind, the sequence
// number, the sending processor, the destination level (levelCtrl for
// processor-addressed control traffic) and, for data, the machine message.
type frame struct {
	kind  wireKind
	seq   uint64
	from  int
	level int
	m     message
}

// levelCtrl marks a frame as processor-addressed (reassign broadcasts)
// rather than level-addressed.
const levelCtrl = -2

// pendingMsg is one unacknowledged data frame awaiting ack or
// retransmission. Immutable after creation except dueNs/backoff, which
// only the protocol goroutine touches (under tr.mu).
type pendingMsg struct {
	seq     uint64
	from    int
	level   int // destination level, or levelCtrl
	proc    int // fixed destination when level == levelCtrl
	m       message
	firstNs int64 // recorder time of the first transmission
	dueNs   int64
	backoff time.Duration
}

type transport struct {
	r   *run
	net faultnet.Network
	cfg ProtocolConfig
	np  int

	seq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*pendingMsg
	seen    map[uint64]bool // data seqs already delivered (dedup)

	// owner maps level -> current owning processor; rewritten by
	// reassignment so retransmits follow the adoption.
	owner    []atomic.Int32
	lastBeat []atomic.Int64 // send stamp of the newest frame received from each proc
	dead     []atomic.Bool  // declared dead (monotonic)
	rootSeen atomic.Bool

	// beatClock is the newest heartbeat emission stamp to arrive: the
	// death detector's clock (protoLoop).
	beatClock atomic.Int64

	// reassignedNs maps level -> recorder time just after its latest
	// reassignment, so a late message can tell whether the level changed
	// owner after it was sent (startPVariant).
	reassignedNs []atomic.Int64

	// sh is shard np of the run's recorder: the protocol goroutine's own
	// single-writer counter block (processors own shards 0..np-1).
	sh *telemetry.Shard

	stats struct {
		retransmits, heartbeats, deaths, levelsReassigned, dupDropped, memoReplies atomic.Int64
	}

	done chan struct{}
	wg   sync.WaitGroup
}

func newTransport(r *run, net faultnet.Network, cfg ProtocolConfig, rec *telemetry.Recorder) *transport {
	tr := &transport{
		r:        r,
		net:      net,
		cfg:      cfg,
		np:       r.nprocs,
		pending:  map[uint64]*pendingMsg{},
		seen:     map[uint64]bool{},
		owner:    make([]atomic.Int32, r.t.Height+1),
		lastBeat: make([]atomic.Int64, r.nprocs),
		dead:     make([]atomic.Bool, r.nprocs),
		sh:       rec.Shard(r.nprocs),
		done:     make(chan struct{}),

		reassignedNs: make([]atomic.Int64, r.t.Height+1),
	}
	for l := range tr.owner {
		tr.owner[l].Store(int32(l % tr.np))
	}
	return tr
}

func (tr *transport) start() {
	now := tr.r.rec.Now()
	for q := range tr.lastBeat {
		tr.lastBeat[q].Store(now)
	}
	tr.beatClock.Store(now)
	tr.net.Start(tr.onPacket)
	tr.wg.Add(1)
	go tr.protoLoop()
}

func (tr *transport) stop() {
	close(tr.done)
	tr.wg.Wait()
}

func (tr *transport) snapshotStats() ProtocolStats {
	return ProtocolStats{
		Retransmits:      tr.stats.retransmits.Load(),
		Heartbeats:       tr.stats.heartbeats.Load(),
		Deaths:           tr.stats.deaths.Load(),
		LevelsReassigned: tr.stats.levelsReassigned.Load(),
		DupDropped:       tr.stats.dupDropped.Load(),
		MemoReplies:      tr.stats.memoReplies.Load(),
	}
}

// resolve maps a destination level to its current owner (-1: coordinator).
func (tr *transport) resolve(level int) int {
	if level < 0 {
		return -1
	}
	return int(tr.owner[level].Load())
}

// send transmits one data frame reliably: it is tracked in pending and
// retransmitted until acked. level == levelCtrl addresses the fixed
// processor proc instead of a level owner. Never called with tr.mu held
// (the network may deliver synchronously, and delivery takes tr.mu).
func (tr *transport) send(from, level, proc int, m message) {
	s := tr.seq.Add(1)
	to := proc
	if level != levelCtrl {
		to = tr.resolve(level)
	}
	now := tr.r.rec.Now()
	pm := &pendingMsg{
		seq: s, from: from, level: level, proc: proc, m: m,
		firstNs: now,
		dueNs:   now + tr.cfg.RetransmitAfter.Nanoseconds(),
		backoff: tr.cfg.RetransmitAfter,
	}
	tr.mu.Lock()
	tr.pending[s] = pm
	tr.mu.Unlock()
	tr.net.Send(faultnet.Packet{From: from, To: to, Payload: frame{kind: wireData, seq: s, from: from, level: level, m: m}})
}

// onPacket is the network delivery callback. It may run on any goroutine
// (the sender's for synchronous networks, the injector's scheduler for
// delayed traffic), so it touches only transport state and mailboxes.
func (tr *transport) onPacket(pkt faultnet.Packet) {
	f, ok := pkt.Payload.(frame)
	if !ok {
		return
	}
	switch f.kind {
	case wireBeat:
		tr.noteBeat(f.from, f.m.sentNs)
		storeMax(&tr.beatClock, f.m.sentNs)
	case wireAck:
		tr.noteBeat(f.from, f.m.sentNs)
		tr.mu.Lock()
		delete(tr.pending, f.seq)
		tr.mu.Unlock()
	case wireData:
		tr.noteBeat(f.from, f.m.sentNs)
		// Ack every copy: the previous ack may itself have been lost.
		ack := frame{kind: wireAck, seq: f.seq, from: pkt.To, m: message{sentNs: tr.r.rec.Now()}}
		tr.net.Send(faultnet.Packet{From: pkt.To, To: pkt.From, Payload: ack})
		tr.mu.Lock()
		dup := tr.seen[f.seq]
		if !dup {
			tr.seen[f.seq] = true
		}
		tr.mu.Unlock()
		if dup {
			tr.stats.dupDropped.Add(1)
			return
		}
		if pkt.To < 0 {
			// Coordinator: the root value.
			if f.m.typ == msgVal {
				tr.rootSeen.Store(true)
				select {
				case tr.r.rootResult <- f.m.val:
				default:
				}
			}
			return
		}
		m := f.m
		m.from = f.from
		tr.r.procs[pkt.To].mb.send(m)
	}
}

// noteBeat records a frame from proc sent at sentNs (its sender's stamp,
// not the arrival time) as evidence that proc was alive then.
func (tr *transport) noteBeat(proc int, sentNs int64) {
	if proc >= 0 && proc < tr.np {
		storeMax(&tr.lastBeat[proc], sentNs)
	}
}

// storeMax raises a to v unless it already holds a later stamp.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// protoLoop is the single protocol goroutine: heartbeat emission, death
// detection, and the retransmit scan. Centralizing emission (gated on the
// network's own Alive/StalledUntil so crashed and stalled processors fall
// silent exactly as real ones would) keeps the processor hot loop
// untouched; centralizing the scan gives the telemetry shard a single
// writer.
func (tr *transport) protoLoop() {
	defer tr.wg.Done()
	tick := tr.cfg.HeartbeatEvery / 4
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var lastEmitNs int64 = -1 << 62
	for {
		select {
		case <-tr.done:
			return
		case <-ticker.C:
		}
		nowNs := tr.r.rec.Now()

		if nowNs-lastEmitNs >= tr.cfg.HeartbeatEvery.Nanoseconds() {
			lastEmitNs = nowNs
			for q := 0; q < tr.np; q++ {
				if tr.dead[q].Load() || !tr.net.Alive(q) {
					continue
				}
				if _, stalled := tr.net.StalledUntil(q); stalled {
					continue
				}
				tr.stats.heartbeats.Add(1)
				tr.sh.Heartbeats.Add(1)
				tr.net.Send(faultnet.Packet{From: q, To: -1, Payload: frame{kind: wireBeat, from: q, m: message{sentNs: nowNs}}})
			}
		}

		// Silence is the heartbeat clock (the newest emission stamp to
		// arrive) minus the send stamp of the processor's newest arrived
		// frame. On the wall clock, a starved host or backed-up transport
		// reads as deaths, and a crashed processor's late-arriving last
		// message can make every survivor look staler than it, leaving it
		// the last, never-declared adopter of every level. Emission skips
		// crashed and stalled processors, so they miss every round from
		// then on.
		clock := tr.beatClock.Load()
		for q := 0; q < tr.np; q++ {
			if tr.dead[q].Load() {
				continue
			}
			if silence := clock - tr.lastBeat[q].Load(); silence > tr.cfg.DeadAfter.Nanoseconds() {
				tr.declareDead(q, silence)
			}
		}

		var resend []*pendingMsg
		tr.mu.Lock()
		for s, pm := range tr.pending {
			if pm.from >= 0 && !tr.net.Alive(pm.from) {
				// A dead processor cannot retransmit; its lost sends are
				// what the recovery sweep re-derives.
				delete(tr.pending, s)
				continue
			}
			if pm.level == levelCtrl && !tr.net.Alive(pm.proc) {
				delete(tr.pending, s) // undeliverable forever
				continue
			}
			if nowNs >= pm.dueNs {
				pm.backoff *= 2
				if pm.backoff > tr.cfg.RetransmitMax {
					pm.backoff = tr.cfg.RetransmitMax
				}
				pm.dueNs = nowNs + pm.backoff.Nanoseconds()
				resend = append(resend, pm)
			}
		}
		tr.mu.Unlock()
		for _, pm := range resend {
			to := pm.proc
			if pm.level != levelCtrl {
				to = tr.resolve(pm.level) // follow any reassignment
			}
			tr.stats.retransmits.Add(1)
			tr.sh.Retransmits.Add(1)
			tr.sh.Hist[telemetry.HistRetransmitDelayNs].Observe(nowNs - pm.firstNs)
			tr.net.Send(faultnet.Packet{From: pm.from, To: to, Payload: frame{kind: wireData, seq: pm.seq, from: pm.from, level: pm.level, m: pm.m}})
		}
	}
}

// declareDead marks proc dead, hands its levels to the next surviving
// processor, and broadcasts the reassignment reliably to everyone —
// including the "dead" processor itself, which fences on hearing it.
// The last surviving processor is never declared dead: with no possible
// adopter the declaration could only wedge the run.
func (tr *transport) declareDead(proc int, silenceNs int64) {
	alive := 0
	for q := 0; q < tr.np; q++ {
		if !tr.dead[q].Load() {
			alive++
		}
	}
	if alive <= 1 {
		return
	}
	tr.dead[proc].Store(true)
	tr.stats.deaths.Add(1)
	tr.sh.Hist[telemetry.HistRecoveryNs].Observe(silenceNs)

	adopter := -1
	for d := 1; d < tr.np; d++ {
		if q := (proc + d) % tr.np; !tr.dead[q].Load() {
			adopter = q
			break
		}
	}
	if adopter < 0 {
		return // unreachable given alive > 1
	}
	var levels []int
	hadRoot := false
	for l := range tr.owner {
		if int(tr.owner[l].Load()) == proc {
			tr.owner[l].Store(int32(adopter))
			// Stamped after the owner switch: a message sent before this
			// time may have routed its siblings to the dead owner.
			tr.reassignedNs[l].Store(tr.r.rec.Now())
			levels = append(levels, l)
			if l == 0 {
				hadRoot = true
			}
		}
	}
	tr.stats.levelsReassigned.Add(int64(len(levels)))
	tr.sh.Reassigns.Add(int64(len(levels)))

	cmd := &reassignCmd{dead: proc, adopter: adopter, levels: levels}
	for q := 0; q < tr.np; q++ {
		tr.send(-1, levelCtrl, q, message{typ: msgReassign, ctrl: cmd})
	}
	if hadRoot && !tr.rootSeen.Load() {
		// The root invocation has no parent to re-derive it from; the
		// monitor re-kicks it. If the root already resolved on the dead
		// processor, the adopter answers from the value memo.
		tr.r.sendFrom(-1, 0, message{typ: msgPSolve, v: tr.r.t.Root()})
	}
}
