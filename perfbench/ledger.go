package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// outcome is the single counted end of one offered operation.
type outcome int32

const (
	unfinished   outcome = iota // no outcome recorded (yet)
	outOK                       // answered, and the answer checked out
	outWrong                    // answered, but the answer failed a check
	outShed                     // refused: HTTP 429
	outExpired                  // deadline expiry: HTTP 504
	outServerErr                // other 5xx
	outTransport                // transport error or any other status
	outCached                   // stream frame answered from the dedup cache
	outDropped                  // stream frame dropped by the drop-stale gate
	outRejected                 // stream frame rejected for its sequence number
	outFailed                   // stream frame failed to serve
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"unfinished", "ok", "wrong", "shed_429", "expired_504", "server_5xx",
	"transport", "cached", "dropped", "rejected_order", "failed",
}

func (o outcome) String() string {
	if o >= 0 && o < numOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int32(o))
}

// succeeded reports whether the outcome is a correct answer.
func (o outcome) succeeded() bool { return o == outOK || o == outCached }

// ledger records exactly one outcome per offered operation. Each
// operation has a slot; the per-outcome counters are kept separately,
// so a lost or doubled outcome shows as a disagreement between the two
// and fails check.
type ledger struct {
	slots  []atomic.Int32
	counts [numOutcomes]atomic.Int64
	dups   atomic.Int64
}

func newLedger(offered int) *ledger { return &ledger{slots: make([]atomic.Int32, offered)} }

// record sets operation i's outcome. A second outcome for the same
// operation is counted as a duplicate, never silently overwritten.
func (l *ledger) record(i int, o outcome) {
	if !l.slots[i].CompareAndSwap(int32(unfinished), int32(o)) {
		l.dups.Add(1)
	}
	l.counts[o].Add(1)
}

// get returns operation i's outcome.
func (l *ledger) get(i int) outcome { return outcome(l.slots[i].Load()) }

// tally counts outcomes over the slots.
func (l *ledger) tally() [numOutcomes]int64 {
	var t [numOutcomes]int64
	for i := range l.slots {
		t[l.slots[i].Load()]++
	}
	return t
}

// check verifies outcome conservation: offered = ok + wrong + 429 +
// 504 + 5xx + transport + ... + unfinished. The slots partition the
// offered operations, so conservation holds exactly when no operation
// was given two outcomes and every counter agrees with the slots.
func (l *ledger) check() error {
	if d := l.dups.Load(); d > 0 {
		return fmt.Errorf("conservation: %d operations have more than one outcome", d)
	}
	t := l.tally()
	for o := outcome(1); o < numOutcomes; o++ {
		if got := l.counts[o].Load(); got != t[o] {
			return fmt.Errorf("conservation: %d %s counted but %d operations hold it", got, o, t[o])
		}
	}
	return nil
}

// wrongAnswers keeps the first few wrong-answer explanations and a
// count, from any goroutine.
type wrongAnswers struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (w *wrongAnswers) note(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	if len(w.first) < 3 {
		w.first = append(w.first, err.Error())
	}
}

func (w *wrongAnswers) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return nil
	}
	return fmt.Errorf("%d wrong answers, e.g. %s", w.n, strings.Join(w.first, "; "))
}
