package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/network"
)

// Span names. The client spans nest: one txn root per transaction, one
// child per Tx call, one grandchild per transport Send made inside that
// call. Handler and filesystem spans are roots keyed by datacenter and kind.
const (
	spTxn uint8 = iota
	spBegin
	spRead
	spReadMulti
	spScan // one Scanner.Next call; a page fetch when it has a send child
	spCommit
	spSend
	spHandler
	spFSWrite
	spFSSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "begin", "read", "readmulti", "scan", "commit", "send", "handler", "fs.write", "fs.sync",
}

// kinds are the message kinds the per-layer metrics break out; anything
// else (claims, stats, replies) is traced under "other".
var kinds = []network.Kind{
	network.KindRead, network.KindReadMulti, network.KindScan, network.KindReadPos,
	network.KindSubmit, network.KindPrepare, network.KindAccept, network.KindApply,
	network.KindFetchLog, network.KindSnapshot,
}

const kindOther = uint8(255)

func kindCode(k network.Kind) uint8 {
	for i, kk := range kinds {
		if kk == k {
			return uint8(i)
		}
	}
	return kindOther
}

func kindName(c uint8) string {
	if int(c) < len(kinds) {
		return string(kinds[c])
	}
	return "other"
}

// span is one recorded interval, times in nanoseconds since the tracer's
// epoch. Kept small: a traced run holds every span in memory until exit.
type span struct {
	id, parent uint64
	start, end int64
	name, kind uint8
	dc         uint8
	// abandoned marks a Send whose caller stopped waiting (its context was
	// cancelled, e.g. once a quorum had answered): not a round trip.
	abandoned bool
}

type spanCtxKey struct{}

// withSpan returns ctx carrying id as the parent for spans started under it.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// tracer records spans and the counters measured at the same seams. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	dcs    []string

	mu    sync.Mutex
	spans []span

	// Handler-seam counters.
	inflight    atomic.Int64
	inflightMax atomic.Int64
	maxMsgBytes atomic.Int64
	handled     [256]atomic.Int64 // requests handled, by kind code
	timeouts    atomic.Int64      // client/service Sends that timed out

	// Catch-up transfer: requests a rejoining replica sends while a
	// CatchUp is running, and the bytes of their replies.
	catchupFrom   atomic.Value // string: the datacenter catching up, "" when none
	transferMsgs  atomic.Int64
	transferBytes atomic.Int64

	// Timing-FS counters: bytes written to WAL segments.
	walBytes atomic.Int64
}

// newTracer starts a tracer; deploy names its datacenters.
func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.catchupFrom.Store("")
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) dcCode(dc string) uint8 {
	for i, d := range t.dcs {
		if d == dc {
			return uint8(i)
		}
	}
	return 255
}

// begin opens a span under parent and returns its id and start time.
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// end records a span that began at start.
func (t *tracer) end(id, parent uint64, start int64, name, kind uint8, dc string) {
	if t == nil {
		return
	}
	t.record(span{id: id, parent: parent, start: start, name: name, kind: kind, dc: t.dcCode(dc)})
}

// record ends s now and keeps it.
func (t *tracer) record(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child runs fn as a span named name under the span carried by ctx,
// passing fn a context that parents fn's own sends under the new span.
func (t *tracer) child(ctx context.Context, name uint8, fn func(context.Context)) {
	if t == nil {
		fn(ctx)
		return
	}
	id, start := t.begin()
	fn(withSpan(ctx, id))
	t.end(id, parentOf(ctx), start, name, kindOther, "")
}

func maxInto(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// tracedTransport wraps a Transport so every Send is a span parented under
// the caller's span (client sends) or a root keyed by datacenter (service
// sends, whose contexts carry no span).
type tracedTransport struct {
	network.Transport
	t  *tracer
	dc string
}

func (tt tracedTransport) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	id, start := tt.t.begin()
	resp, err := tt.Transport.Send(ctx, to, req)
	abandoned := false
	if err == network.ErrTimeout {
		// The transports report a cancelled wait as a timeout too; only an
		// expired deadline is a message the peer never answered.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			tt.t.timeouts.Add(1)
		} else {
			abandoned = true
		}
	}
	tt.t.record(span{id: id, parent: parentOf(ctx), start: start, name: spSend, kind: kindCode(req.Kind),
		dc: tt.t.dcCode(tt.dc), abandoned: abandoned})
	return resp, err
}

// handler wraps one datacenter's AsyncHandler: a root span from the call to
// the reply, in-flight depth, reply sizes on the wire, and catch-up
// transfer volume.
func (t *tracer) handler(dc string, h network.AsyncHandler) network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		id, start := t.begin()
		kc := kindCode(req.Kind)
		t.handled[kc].Add(1)
		maxInto(&t.inflightMax, t.inflight.Add(1))
		transfer := from != dc && from == t.catchupFrom.Load().(string)
		var once atomic.Bool
		h(from, req, func(resp network.Message) {
			if once.CompareAndSwap(false, true) {
				size := int64(len(network.MarshalBinary(resp)))
				maxInto(&t.maxMsgBytes, size)
				if transfer {
					t.transferMsgs.Add(1)
					t.transferBytes.Add(size)
				}
				t.inflight.Add(-1)
				t.end(id, 0, start, spHandler, kc, dc)
			}
			reply(resp)
		})
	}
}

// recorded returns the spans recorded so far; call it once the run is over.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans dumps every span, one tab-separated line each, gzip-compressed.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\tname\tkind\tdc\tstart_ns\tend_ns\tabandoned")
	for _, s := range t.recorded() {
		dc := ""
		if int(s.dc) < len(t.dcs) {
			dc = t.dcs[s.dc]
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%t\n", s.id, s.parent, spanNames[s.name], kindName(s.kind), dc, s.start, s.end, s.abandoned)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes spans by parent for self-time and coverage queries:
// byParent lists span indices ordered by parent id, so a span's children
// are one contiguous run found by binary search.
type spanTree struct {
	spans    []span
	byParent []int32
}

func newSpanTree(spans []span) *spanTree {
	tr := &spanTree{spans: spans, byParent: make([]int32, len(spans))}
	for i := range tr.byParent {
		tr.byParent[i] = int32(i)
	}
	sort.Slice(tr.byParent, func(a, b int) bool {
		return spans[tr.byParent[a]].parent < spans[tr.byParent[b]].parent
	})
	return tr
}

// children returns the indices of id's child spans.
func (tr *spanTree) children(id uint64) []int32 {
	lo := sort.Search(len(tr.byParent), func(i int) bool { return tr.spans[tr.byParent[i]].parent >= id })
	hi := lo
	for hi < len(tr.byParent) && tr.spans[tr.byParent[hi]].parent == id {
		hi++
	}
	return tr.byParent[lo:hi]
}

func (tr *spanTree) childIntervals(id uint64) []interval {
	idx := tr.children(id)
	out := make([]interval, len(idx))
	for i, j := range idx {
		out[i] = interval{tr.spans[j].start, tr.spans[j].end}
	}
	return out
}

func (tr *spanTree) self(s span) int64 {
	return selfTime(interval{s.start, s.end}, tr.childIntervals(s.id))
}

func (tr *spanTree) hasChild(id uint64, name uint8) bool {
	for _, j := range tr.children(id) {
		if tr.spans[j].name == name {
			return true
		}
	}
	return false
}

// Reconciliation tolerance: a transaction's child spans (its Tx calls)
// must cover its root span except for at most reconcileSlack of it plus
// reconcileFloor — the benchmark's own bookkeeping between calls.
const (
	reconcileSlack = 0.05
	reconcileFloor = 200 * time.Microsecond
	// reconcileMin is the share of transactions that must reconcile for a
	// traced run to pass; the rest may straddle a GC pause or lose the
	// processor between two calls on a busy machine.
	reconcileMin = 0.95
)

// reconcileWindow checks every txn root starting in [lo, hi) against its
// children and returns how many reconciled, the total, and the
// distribution of uncovered time (µs).
func (tr *spanTree) reconcileWindow(lo, hi int64) (ok, total int, uncovered dist) {
	for _, s := range tr.spans {
		if s.name != spTxn || s.start < lo || s.start >= hi {
			continue
		}
		total++
		gap := tr.self(s)
		uncovered.add(float64(gap) / 1e3)
		if reconciles(s.end-s.start, gap) {
			ok++
		}
	}
	return ok, total, uncovered
}

// reconciles reports whether a root of duration dur whose children leave
// gap of it uncovered is within the stated tolerance.
func reconciles(dur, gap int64) bool {
	return float64(gap) <= reconcileSlack*float64(dur)+float64(reconcileFloor)
}
