// Package msgpass implements Section 7 of Karp & Zhang (1989): the
// message-passing multiprocessor implementation of N-Parallel SOLVE of
// width 1 for binary NOR trees.
//
// One processor is assigned to each level of the tree (or, with fewer
// processors than levels, levels are divided into zones and a processor
// multiplexes the levels congruent to its index, exactly as the paper's
// closing remark describes). Processors exchange the paper's six message
// types:
//
//	S-SOLVE*(v)    run the sequential left-to-right DFS on the subtree at v
//	P-SOLVE*(v)    coordinate the width-1 parallel evaluation at v
//	P-SOLVE**(v)   as P-SOLVE*, but v already expanded, left child pending
//	P-SOLVE***(v)  as P-SOLVE*, but v expanded and left child known 0
//	val(v)=0/1     report a computed value to the level above
//
// The pre-emption rule is followed literally: a processor works only on
// the most recent S-invocation and the most recent P-invocation per level
// it owns, and it works on S-SOLVE*(v) only while not directed to run
// P-SOLVE*(v); superseded invocations are dropped, and stale val messages
// are discarded by matching them against the children the current
// invocation is actually waiting on. Each goroutine is a processor;
// channels plus a condition-variable mailbox model the unit-time
// message-passing network.
package msgpass

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/faultnet"
	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// Options configures a run.
type Options struct {
	// Processors is the number of processor goroutines; 0 means one per
	// level (height+1), the paper's default allocation.
	Processors int
	// WorkPerExpansion adds synthetic CPU work (iterations of a mixing
	// loop) to every node expansion, modeling expensive leaf evaluation
	// so that wall-clock speedup is observable.
	WorkPerExpansion int
	// Telemetry, when non-nil, receives the per-processor message
	// counters (shard i = processor i). When nil a run-local recorder is
	// used; either way Metrics.PerProcessor reports the counts.
	Telemetry *telemetry.Recorder
	// Net, when non-nil, routes every message through the given network
	// and arms the reliability protocol (sequence numbers,
	// ack/retransmit with backoff, heartbeat crash detection, level
	// reassignment — see reliable.go). nil keeps the direct in-process
	// path, whose only added cost is one nil check per send.
	Net faultnet.Network
	// Protocol tunes the reliability protocol; zero fields take the
	// defaults. Ignored when Net is nil.
	Protocol ProtocolConfig
}

// ProcStats is one processor's message telemetry: invocations and values
// it sent, messages it drained from its mailbox, and messages it dropped
// as stale (superseded invocations and values no live invocation waits
// on).
type ProcStats struct {
	Sent         int64
	Received     int64
	StaleDropped int64
}

// Metrics reports the outcome of a run.
type Metrics struct {
	Value      int32
	Expansions int64 // total node expansions performed (including speculative ones)
	Messages   int64 // total messages delivered
	Processors int
	// ByType counts messages per kind, indexed S-SOLVE*, P-SOLVE*,
	// P-SOLVE**, P-SOLVE***, val.
	ByType [5]int64
	// PerProcessor is the per-processor message telemetry (index =
	// processor id). The coordinator's kickoff message is counted in
	// Messages but attributed to no processor.
	PerProcessor []ProcStats
	// Protocol reports the reliability-protocol traffic of a faultnet
	// run; all zero on the perfect in-process path.
	Protocol ProtocolStats
	// Net reports what the network did to the traffic; zero value when
	// Options.Net was nil.
	Net faultnet.Stats
}

type msgType uint8

const (
	msgSSolve  msgType = iota // S-SOLVE*(v)
	msgPSolve                 // P-SOLVE*(v)
	msgPSolve2                // P-SOLVE**(v)
	msgPSolve3                // P-SOLVE***(v)
	msgVal                    // val(v) = b
	// msgReassign is transport-level control (reliable.go): a dead
	// processor's levels now belong to an adopter. Never counted in
	// Metrics.ByType; only exists on faultnet runs.
	msgReassign
)

type message struct {
	typ    msgType
	v      tree.NodeID
	val    int8
	sentNs int64        // recorder timestamp at send; queue-residence timebase
	from   int          // sending processor (-1: coordinator); set on network delivery
	ctrl   *reassignCmd // payload of msgReassign, nil otherwise
}

// mailbox is an unbounded MPSC queue so that sends never block (the model
// assumes any processor can send a message in unit time).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	halted bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) send(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *mailbox) halt() {
	mb.mu.Lock()
	mb.halted = true
	mb.mu.Unlock()
	mb.cond.Signal()
}

// drain returns all pending messages. If wait is true and none are
// pending, it blocks until a message arrives or the run halts. The second
// result reports whether the run has halted.
func (mb *mailbox) drain(wait bool) ([]message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for wait && len(mb.queue) == 0 && !mb.halted {
		mb.cond.Wait()
	}
	msgs := mb.queue
	mb.queue = nil
	return msgs, mb.halted
}

// ---------------------------------------------------------------------------
// Per-level invocation state

// sFrame is one frame of the non-recursive DFS stack of S-SOLVE*: the
// node, and the stage of its evaluation (0: about to expand, 1: searching
// the left child, 2: left child was 0, searching the right child).
type sFrame struct {
	node  tree.NodeID
	stage int8
}

// sState is an S-SOLVE* invocation. The stack always ends in a stage-0
// frame: the node the DFS is ready to expand next.
type sState struct {
	root  tree.NodeID
	stack []sFrame
}

// pState is a P-SOLVE*/**/*** invocation at some node v.
type pState struct {
	v    tree.NodeID
	w, x tree.NodeID // left and right child (None if v is a leaf)
	lval int8        // -1 unknown
	rval int8        // -1 unknown
}

// levelState holds the (at most) one S-invocation and one P-invocation a
// processor maintains for one level it owns.
type levelState struct {
	s *sState
	p *pState
}

// ---------------------------------------------------------------------------
// Run

type run struct {
	t          *tree.Tree
	procs      []*processor
	nprocs     int
	rec        *telemetry.Recorder // timebase for message queue residence
	rootResult chan int8
	expansions atomic.Int64
	messages   atomic.Int64
	byType     [5]atomic.Int64
	workSpin   int
	tr         *transport // nil on the perfect in-process path

	// reported[v] is set when val(v) has been sent upward. The paper's
	// synchronous unit-time network makes the pre-emption rule
	// sufficient on its own; in this asynchronous goroutine realization
	// a superseded invocation can be handled late and spawn child
	// invocations that collide with the live cascade. An invocation is
	// stale exactly when some ancestor's value has already been
	// reported, so every processor checks that (shared, monotonic)
	// condition before acting on an invocation message.
	reported []atomic.Bool

	// vals memoizes each reported value (stored as val+1; 0 = unset).
	// Over a faulty network the original val message can die with a
	// crashed recipient, so a re-issued invocation for a reported node is
	// answered from this memo instead of being dropped as stale.
	vals []atomic.Int32
}

// markReported records that val(v)=val has been sent to the level above.
// The memo is written before the flag so any reader that observes the
// flag sees a valid value.
func (r *run) markReported(v tree.NodeID, val int8) {
	r.vals[v].Store(int32(val) + 1)
	r.reported[v].Store(true)
}

// reportedVal returns the memoized value of a reported node.
func (r *run) reportedVal(v tree.NodeID) int8 { return int8(r.vals[v].Load() - 1) }

// stale reports whether an invocation rooted at v is obsolete: the value
// of v or of one of its ancestors has already been reported.
func (r *run) stale(v tree.NodeID) bool {
	for x := v; x != tree.None; x = r.t.Node(x).Parent {
		if r.reported[x].Load() {
			return true
		}
	}
	return false
}

type processor struct {
	r      *run
	id     int
	mb     *mailbox
	sh     *telemetry.Shard // this processor's message counters
	levels map[int]*levelState
	owned  []int // levels this processor owns, ascending (for fair multiplexing)
	next   int   // round-robin cursor into owned
	fenced bool  // declared dead by the protocol; go silent (reliable.go)
}

// send counts the message against this processor's shard and routes it.
func (p *processor) send(level int, m message) {
	p.sh.MsgsSent.Add(1)
	p.r.sendFrom(p.id, level, m)
}

// Evaluate runs the Section 7 implementation on a binary NOR tree and
// returns the root value with run statistics. The tree must be a NOR tree
// in which every internal node has exactly two children.
func Evaluate(t *tree.Tree, opt Options) (Metrics, error) {
	if t.Kind != tree.NOR {
		return Metrics{}, errors.New("msgpass: input must be a NOR tree")
	}
	for i := range t.Nodes {
		if nc := t.Nodes[i].NumChildren; nc != 0 && nc != 2 {
			return Metrics{}, fmt.Errorf("msgpass: node %d has %d children; Section 7 requires a binary tree", i, nc)
		}
	}
	np := opt.Processors
	if np <= 0 {
		np = t.Height + 1
	}
	if np > t.Height+1 {
		np = t.Height + 1 // extra processors would own no level
	}
	rec := opt.Telemetry
	if rec == nil {
		rec = telemetry.NewRecorder()
	}
	r := &run{
		t:          t,
		nprocs:     np,
		rec:        rec,
		rootResult: make(chan int8, 1),
		workSpin:   opt.WorkPerExpansion,
		reported:   make([]atomic.Bool, t.Len()),
		vals:       make([]atomic.Int32, t.Len()),
	}
	r.procs = make([]*processor, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		p := &processor{r: r, id: i, mb: newMailbox(), sh: rec.Shard(i), levels: map[int]*levelState{}}
		for lvl := i; lvl <= t.Height; lvl += np {
			p.owned = append(p.owned, lvl)
		}
		r.procs[i] = p
	}
	base := make([]ProcStats, np)
	for i, p := range r.procs {
		base[i] = ProcStats{
			Sent:         p.sh.MsgsSent.Load(),
			Received:     p.sh.MsgsRecv.Load(),
			StaleDropped: p.sh.MsgsStale.Load(),
		}
	}
	if opt.Net != nil {
		r.tr = newTransport(r, opt.Net, opt.Protocol.withDefaults(), rec)
	}
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func(p *processor) {
			defer wg.Done()
			p.loop()
		}(r.procs[i])
	}
	if r.tr != nil {
		r.tr.start()
	}
	// Kick off: P-SOLVE*(root) to the processor owning level 0.
	r.sendFrom(-1, 0, message{typ: msgPSolve, v: t.Root()})
	val := <-r.rootResult
	if r.tr != nil {
		r.tr.stop()
		opt.Net.Close()
	}
	for _, p := range r.procs {
		p.mb.halt()
	}
	wg.Wait()
	m := Metrics{
		Value:      int32(val),
		Expansions: r.expansions.Load(),
		Messages:   r.messages.Load(),
		Processors: np,
	}
	for i := range m.ByType {
		m.ByType[i] = r.byType[i].Load()
	}
	m.PerProcessor = make([]ProcStats, np)
	for i, p := range r.procs {
		// Subtract the pre-run baseline so a recorder reused across runs
		// still yields this run's counts in Metrics.
		m.PerProcessor[i] = ProcStats{
			Sent:         p.sh.MsgsSent.Load() - base[i].Sent,
			Received:     p.sh.MsgsRecv.Load() - base[i].Received,
			StaleDropped: p.sh.MsgsStale.Load() - base[i].StaleDropped,
		}
	}
	if r.tr != nil {
		m.Protocol = r.tr.snapshotStats()
		m.Net = opt.Net.Stats()
	}
	return m, nil
}

// send routes a message to the processor owning the given level. Level -1
// is the coordinator awaiting the root value.
var debugHook func(level int, m message)

// debugHandle, when set, observes every message as a processor handles it
// (tag "h") and every val drop (tag "drop"). Test-only.
var debugHandle func(tag string, proc int, m message)

// dumpState reports the live invocations of every processor (test-only
// deadlock diagnosis).
func (r *run) dumpState() string {
	out := ""
	for _, p := range r.procs {
		p.mb.mu.Lock()
		for lvl, ls := range p.levels {
			if ls.s != nil {
				out += fmt.Sprintf("p%d L%d S(root=%d stack=%d) ", p.id, lvl, ls.s.root, len(ls.s.stack))
			}
			if ls.p != nil {
				out += fmt.Sprintf("p%d L%d P(v=%d w=%d x=%d lval=%d rval=%d) ", p.id, lvl, ls.p.v, ls.p.w, ls.p.x, ls.p.lval, ls.p.rval)
			}
		}
		out += fmt.Sprintf("p%d queue=%d; ", p.id, len(p.mb.queue))
		p.mb.mu.Unlock()
	}
	return out
}

func (r *run) send(level int, m message) { r.sendFrom(-1, level, m) }

// sendFrom routes a message from processor `from` (-1: the coordinator)
// to the owner of `level`. On the perfect path that is a direct mailbox
// append; with a network armed it becomes a reliable transport send.
func (r *run) sendFrom(from, level int, m message) {
	r.messages.Add(1)
	if m.typ < msgReassign {
		r.byType[m.typ].Add(1)
	}
	m.sentNs = r.rec.Now()
	if debugHook != nil {
		debugHook(level, m)
	}
	if r.tr != nil {
		r.tr.send(from, level, -1, m)
		return
	}
	if level < 0 {
		if m.typ != msgVal {
			panic("msgpass: only val messages go to the coordinator")
		}
		select {
		case r.rootResult <- m.val:
		default: // a second (stale) root report is impossible, but harmless
		}
		return
	}
	r.procs[level%r.nprocs].mb.send(m)
}

// expand performs the synthetic work of one node expansion.
func (r *run) expand() {
	r.expansions.Add(1)
	if r.workSpin > 0 {
		spin(r.workSpin)
	}
}

var spinSink uint64

// spin burns CPU deterministically; the result is published to a package
// sink so the loop cannot be optimized away.
func spin(n int) {
	z := uint64(n)
	for i := 0; i < n; i++ {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
	}
	atomic.StoreUint64(&spinSink, z)
}

func (p *processor) loop() {
	for {
		msgs, halted := p.mb.drain(!p.hasWork())
		if halted {
			return
		}
		if tr := p.r.tr; tr != nil {
			if !tr.net.Alive(p.id) {
				p.awaitHalt() // crashed: execute nothing more
				return
			}
			if until, ok := tr.net.StalledUntil(p.id); ok {
				time.Sleep(time.Until(until))
			}
		}
		for _, m := range msgs {
			if p.fenced {
				break
			}
			p.sh.MsgsRecv.Add(1)
			p.sh.Hist[telemetry.HistMsgResidenceNs].Observe(p.r.rec.Now() - m.sentNs)
			if debugHandle != nil {
				debugHandle("h", p.id, m)
			}
			p.handle(m)
		}
		if p.fenced {
			p.awaitHalt()
			return
		}
		p.stepWork()
	}
}

// awaitHalt discards all further traffic until the run ends; the terminal
// state of crashed and fenced processors.
func (p *processor) awaitHalt() {
	for {
		if _, halted := p.mb.drain(true); halted {
			return
		}
	}
}

func (p *processor) hasWork() bool {
	for _, ls := range p.levels {
		if ls.s != nil {
			return true
		}
	}
	return false
}

func (p *processor) state(level int) *levelState {
	ls := p.levels[level]
	if ls == nil {
		ls = &levelState{}
		p.levels[level] = ls
	}
	return ls
}

func (p *processor) handle(m message) {
	t := p.r.t
	if m.typ == msgReassign {
		p.onReassign(m.ctrl)
		return
	}
	if tr := p.r.tr; tr != nil && m.from >= 0 && tr.dead[m.from].Load() {
		// Fenced sender: a processor declared dead may still be running
		// (stalled or falsely suspected). The recovery sweep re-derives
		// what its messages carried, and a late one could replace a live
		// invocation of the adopted cascade at its level. The flag is set
		// before the reassignment is broadcast, so nothing the recovery
		// causes is handled before it.
		p.sh.MsgsStale.Add(1)
		return
	}
	if m.typ != msgVal {
		if p.r.reported[m.v].Load() {
			// v's value is already out. On the perfect network the
			// invocation is simply superseded; over a faulty one the
			// earlier val may have died with a crashed recipient, so a
			// re-issued invocation is answered from the memo.
			if tr := p.r.tr; tr != nil {
				tr.stats.memoReplies.Add(1)
				p.send(t.Depth(m.v)-1, message{typ: msgVal, v: m.v, val: p.r.reportedVal(m.v)})
			} else {
				p.sh.MsgsStale.Add(1)
			}
			return
		}
		if p.r.stale(m.v) {
			p.sh.MsgsStale.Add(1)
			return // superseded invocation: an ancestor's value is already out
		}
	}
	switch m.typ {
	case msgSSolve:
		// Pre-emption: the most recent S-invocation at this level
		// replaces any older one — unless we have been directed to run
		// P-SOLVE*(v) for this same node, in which case the P
		// invocation owns the node.
		ls := p.state(t.Depth(m.v))
		if ls.p != nil && ls.p.v == m.v {
			return
		}
		ls.s = &sState{root: m.v, stack: []sFrame{{node: m.v}}}
	case msgPSolve:
		p.startPSolve(m.v)
	case msgPSolve2:
		p.startPVariant(m.v, -1, m.sentNs)
	case msgPSolve3:
		p.startPVariant(m.v, 0, m.sentNs)
	case msgVal:
		p.handleVal(m.v, m.val)
	}
}

// onReassign applies a level-reassignment broadcast (reliable.go). The
// declared-dead processor fences itself; the adopter takes ownership of
// the orphaned levels; and every survivor re-issues the child invocations
// its live P-invocations had sent into those levels, since the originals
// died with the processor that owned them. Values are deterministic per
// node, so redundant re-invocations converge (reported nodes answer from
// the memo, live ones are superseded by the pre-emption rule).
func (p *processor) onReassign(c *reassignCmd) {
	if c.dead == p.id {
		p.fenced = true
		p.levels = map[int]*levelState{}
		return
	}
	if c.adopter == p.id {
		for _, l := range c.levels {
			if !slices.Contains(p.owned, l) {
				p.owned = append(p.owned, l)
			}
		}
		slices.Sort(p.owned)
	}
	reassigned := make(map[int]bool, len(c.levels))
	for _, l := range c.levels {
		reassigned[l] = true
	}
	for level, ls := range p.levels {
		if ls.p != nil && reassigned[level+1] {
			p.reissue(level, ls.p)
		}
	}
}

// reissue re-sends into level+1 the child invocations the P-invocation
// st (at level) is still waiting on.
func (p *processor) reissue(level int, st *pState) {
	switch {
	case st.lval < 0 && st.rval < 0:
		p.send(level+1, message{typ: msgPSolve, v: st.w})
		p.send(level+1, message{typ: msgSSolve, v: st.x})
	case st.lval < 0:
		p.send(level+1, message{typ: msgPSolve, v: st.w})
	case st.lval == 0 && st.rval < 0:
		p.send(level+1, message{typ: msgPSolve, v: st.x})
	}
}

// startPSolve implements the two cases of "P-SOLVE*(v)".
func (p *processor) startPSolve(v tree.NodeID) {
	t := p.r.t
	level := t.Depth(v)
	ls := p.state(level)
	if ls.s != nil && ls.s.root == v {
		// Case 2: an execution of S-SOLVE*(v) is in progress here.
		// Convert its DFS path into the cascade of invocations.
		p.handoff(ls.s)
		ls.s = nil
		return
	}
	// Case 1: start fresh. The most recent P-invocation wins the level.
	p.r.expand()
	nd := t.Node(v)
	if nd.NumChildren == 0 {
		p.r.markReported(v, int8(nd.Value))
		p.send(level-1, message{typ: msgVal, v: v, val: int8(nd.Value)})
		ls.p = nil
		return
	}
	w, x := nd.FirstChild, nd.FirstChild+1
	ls.p = &pState{v: v, w: w, x: x, lval: -1, rval: -1}
	p.send(level+1, message{typ: msgPSolve, v: w})
	p.send(level+1, message{typ: msgSSolve, v: x})
}

// startPVariant implements "P-SOLVE**(v)" (lval = -1: left child pending)
// and "P-SOLVE***(v)" (lval = 0: left child known to be 0). In both cases
// v has already been expanded and the child invocations are already
// running, so the processor only waits for value messages.
//
// Over a faulty network a dropped variant is retransmitted late, after
// events it should precede:
//   - A child's value (answered from the memo) arrived first, found no
//     waiter and was discarded, so the memo is consulted here; values
//     are memoized before they are sent, so none is missed.
//   - The child level was reassigned after the variant was sent (sentNs),
//     before this invocation existed for the recovery sweep to see, so
//     the child invocations that died with the old owner are re-issued.
func (p *processor) startPVariant(v tree.NodeID, lval int8, sentNs int64) {
	t := p.r.t
	nd := t.Node(v)
	if nd.NumChildren == 0 {
		// Cannot happen: the handoff sends P-variants only for internal
		// path nodes.
		p.r.markReported(v, int8(nd.Value))
		p.send(t.Depth(v)-1, message{typ: msgVal, v: v, val: int8(nd.Value)})
		return
	}
	ls := p.state(t.Depth(v))
	st := &pState{v: v, w: nd.FirstChild, x: nd.FirstChild + 1, lval: lval, rval: -1}
	ls.p = st
	if ls.s != nil && ls.s.root == v {
		ls.s = nil // the P-invocation owns the node now
	}
	tr := p.r.tr
	if tr == nil {
		return // the perfect network is FIFO: nothing can overtake
	}
	for _, c := range []tree.NodeID{st.w, st.x} {
		if ls.p == st && p.r.reported[c].Load() {
			p.handleVal(c, p.r.reportedVal(c))
		}
	}
	if level := t.Depth(v); ls.p == st && tr.reassignedNs[level+1].Load() >= sentNs {
		p.reissue(level, st)
	}
}

// handoff converts an in-progress S-SOLVE* DFS into width-1 cascade
// invocations: for every node u on the current DFS path, the path's
// direction at u determines the message, and the terminal node receives a
// fresh P-SOLVE*.
func (p *processor) handoff(s *sState) {
	t := p.r.t
	for _, f := range s.stack {
		u := f.node
		level := t.Depth(u)
		switch f.stage {
		case 1: // path continues into the left child
			p.send(level, message{typ: msgPSolve2, v: u})
			p.send(level+1, message{typ: msgSSolve, v: t.Node(u).FirstChild + 1})
		case 2: // left child resolved to 0; path continues right
			p.send(level, message{typ: msgPSolve3, v: u})
		default: // stage 0: the terminal node of the path
			p.send(level, message{typ: msgPSolve, v: u})
		}
	}
}

// handleVal delivers val(v)=b to the P-invocation waiting on v, if any.
// Stale values (from superseded invocations) match no waiter and are
// dropped.
func (p *processor) handleVal(v tree.NodeID, b int8) {
	t := p.r.t
	parentLevel := t.Depth(v) - 1
	ls := p.levels[parentLevel]
	if ls == nil || ls.p == nil {
		p.sh.MsgsStale.Add(1)
		if debugHandle != nil {
			debugHandle("drop-noP", p.id, message{typ: msgVal, v: v, val: b})
		}
		return
	}
	st := ls.p
	switch v {
	case st.w:
		if st.lval >= 0 {
			p.sh.MsgsStale.Add(1)
			return // duplicate/stale
		}
		st.lval = b
		if b == 1 {
			p.finishP(parentLevel, st, 0)
			return
		}
		// Left child is 0: promote the right child's sequential search
		// to a parallel one.
		if st.rval < 0 {
			p.send(parentLevel+1, message{typ: msgPSolve, v: st.x})
		} else {
			p.finishP(parentLevel, st, 1-st.rval)
		}
	case st.x:
		if st.rval >= 0 {
			p.sh.MsgsStale.Add(1)
			return
		}
		st.rval = b
		if b == 1 {
			p.finishP(parentLevel, st, 0)
			return
		}
		if st.lval == 0 {
			p.finishP(parentLevel, st, 1)
		}
		// Otherwise keep waiting for the left child.
	default:
		p.sh.MsgsStale.Add(1) // value for a child this invocation is not waiting on
	}
}

func (p *processor) finishP(level int, st *pState, val int8) {
	p.r.markReported(st.v, val)
	p.send(level-1, message{typ: msgVal, v: st.v, val: val})
	if ls := p.levels[level]; ls != nil && ls.p == st {
		ls.p = nil
	}
}

// stepWork advances one S-SOLVE* invocation by one node expansion,
// multiplexing fairly (round-robin) over the levels this processor owns —
// the "zones" scheme of the paper's closing remark.
func (p *processor) stepWork() {
	for i := 0; i < len(p.owned); i++ {
		lvl := p.owned[(p.next+i)%len(p.owned)]
		if ls := p.levels[lvl]; ls != nil && ls.s != nil {
			p.next = (p.next + i + 1) % len(p.owned)
			p.stepS(ls)
			return
		}
	}
}

// stepS performs one expansion of the DFS and the (free) value
// propagation that follows it.
func (p *processor) stepS(ls *levelState) {
	t := p.r.t
	s := ls.s
	top := &s.stack[len(s.stack)-1]
	p.r.expand()
	nd := t.Node(top.node)
	if nd.NumChildren == 0 {
		p.propagateS(ls, int8(nd.Value))
		return
	}
	top.stage = 1
	s.stack = append(s.stack, sFrame{node: nd.FirstChild})
}

// propagateS pops the finished node's value up the DFS stack: a 1 child
// makes the parent 0 immediately; a 0 child advances the parent to its
// right child or, if both children were 0, resolves the parent to 1.
func (p *processor) propagateS(ls *levelState, val int8) {
	t := p.r.t
	s := ls.s
	s.stack = s.stack[:len(s.stack)-1]
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if val == 1 {
			val = 0 // NOR: parent determined 0
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if top.stage == 1 {
			top.stage = 2
			s.stack = append(s.stack, sFrame{node: t.Node(top.node).FirstChild + 1})
			return
		}
		// stage 2 and the right child returned 0: parent is 1.
		val = 1
		s.stack = s.stack[:len(s.stack)-1]
	}
	// The whole invocation finished.
	p.r.markReported(s.root, val)
	p.send(t.Depth(s.root)-1, message{typ: msgVal, v: s.root, val: val})
	ls.s = nil
}
