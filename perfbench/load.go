package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/stats"
	"paxoscp/internal/ycsb"
)

// txnSample is one transaction a closed-loop client ran.
type txnSample struct {
	start, end time.Time
	commit     time.Duration // Commit call alone
	outcome    stats.Outcome
	readOnly   bool
	round      int
	combined   bool
}

// loader drives the closed-loop clients: each issues its next generated
// transaction as soon as the previous one returns, until stop.
type loader struct {
	d        *deployment
	stop     atomic.Bool
	scanRows atomic.Int64 // rows returned by scans

	errMu sync.Mutex
	errs  []string // correctness failures seen inline (scan order)
	fails int      // transactions failed by an error; the first five are logged
}

func (l *loader) violation(msg string) {
	l.errMu.Lock()
	l.errs = append(l.errs, msg)
	l.errMu.Unlock()
}

func (l *loader) logFailure(err error) {
	l.errMu.Lock()
	l.fails++
	if l.fails <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: transaction failed: %v\n", err)
	}
	l.errMu.Unlock()
}

// run runs one client until stop and returns its samples.
func (l *loader) run(ctx context.Context, c *core.Client, gen *ycsb.Generator) []txnSample {
	var out []txnSample
	for !l.stop.Load() {
		group, ops := gen.Next()
		out = append(out, l.txn(ctx, c, group, ops))
	}
	return out
}

// txn runs one generated transaction: reads (per key, or each run of
// consecutive reads as one ReadMulti), buffered writes, scans, commit.
// Traced, it is one root span with a child span per Tx call.
func (l *loader) txn(ctx context.Context, c *core.Client, group string, ops []ycsb.Op) (s txnSample) {
	tr := l.d.tr
	rootID, rootStart := tr.begin()
	if tr != nil {
		ctx = withSpan(ctx, rootID)
	}
	s = txnSample{start: time.Now(), readOnly: true}
	for _, op := range ops {
		if op.Kind == ycsb.Write {
			s.readOnly = false
		}
	}
	defer func() {
		s.end = time.Now()
		tr.end(rootID, 0, rootStart, spTxn, kindOther, c.DC())
	}()
	fail := func(tx *core.Tx, err error) txnSample {
		if tx != nil {
			tx.Abort()
		}
		l.logFailure(err)
		s.outcome = stats.Failed
		return s
	}

	var tx *core.Tx
	var err error
	tr.child(ctx, spBegin, func(ctx context.Context) { tx, err = c.Begin(ctx, group) })
	if err != nil {
		return fail(nil, err)
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		switch op.Kind {
		case ycsb.Read:
			if !l.d.w.BatchReads {
				tr.child(ctx, spRead, func(ctx context.Context) { _, _, err = tx.Read(ctx, op.Key) })
				break
			}
			keys := []string{op.Key}
			for i+1 < len(ops) && ops[i+1].Kind == ycsb.Read {
				i++
				keys = append(keys, ops[i].Key)
			}
			tr.child(ctx, spReadMulti, func(ctx context.Context) { _, _, err = tx.ReadMulti(ctx, keys...) })
		case ycsb.Write:
			err = tx.Write(op.Key, op.Value)
		case ycsb.Scan:
			err = l.scan(ctx, tx, op)
		}
		if err != nil {
			return fail(tx, err)
		}
	}
	var res core.CommitResult
	commitStart := time.Now()
	tr.child(ctx, spCommit, func(ctx context.Context) { res, err = tx.Commit(ctx) })
	s.commit = time.Since(commitStart)
	if err != nil {
		l.logFailure(err)
	}
	s.outcome, s.round, s.combined = res.Status, res.Round, res.Combined
	return s
}

// scan reads up to op.ScanLen rows after op.Key in one page, checking the
// ordering contract on every row.
func (l *loader) scan(ctx context.Context, tx *core.Tx, op ycsb.Op) error {
	sc := tx.Scan(ycsb.AttrPrefix)
	sc.StartAfter = op.Key
	sc.PageSize = op.ScanLen
	prev := op.Key
	for got := 0; got < op.ScanLen; got++ {
		var more bool
		l.d.tr.child(ctx, spScan, func(ctx context.Context) { more = sc.Next(ctx) })
		if !more {
			break
		}
		if msg := scanOrderError(ycsb.AttrPrefix, prev, sc.Key()); msg != "" {
			l.violation(msg)
		}
		prev = sc.Key()
		l.scanRows.Add(1)
	}
	return sc.Err()
}
