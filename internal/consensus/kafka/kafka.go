// Package kafka implements SEBDB's Kafka-style ordering service: a
// crash-fault-tolerant (non-BFT) total-order broker. Transactions are
// published to one topic partition; the broker cuts a batch when either
// BatchSize transactions accumulate or BatchTimeout elapses (the
// paper's §VII-B setting: 200 transactions / 200 ms), then delivers the
// batch to every subscribed node, which packages it as the next block.
// A single delivery goroutine packages and appends — the same
// serialisation point the paper identifies as the throughput ceiling.
package kafka

import (
	"errors"
	"sync"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/consensus"
	"sebdb/internal/obs"
	"sebdb/internal/parallel"
	"sebdb/internal/types"
)

// Options configures the broker.
type Options struct {
	// BatchSize cuts a batch when this many transactions are pending
	// (default 200).
	BatchSize int
	// BatchTimeout cuts a non-empty batch after this delay even if it is
	// not full (default 200 ms).
	BatchTimeout time.Duration
	// RequireSigs makes the broker reject transactions without a valid
	// sender signature at batch-cut time, verified in parallel over
	// Parallelism workers. Default off — a Kafka-style orderer normally
	// trusts its publishers and leaves verification to the peers.
	RequireSigs bool
	// Parallelism bounds the batch signature-verification fan-out.
	// Zero means GOMAXPROCS.
	Parallelism int
	// Now supplies block timestamps (default clock.UnixMicro). Injected
	// so replays and tests can pin the timestamps subscribers agree on.
	Now clock.Source
	// Log receives structured broker events (batch rejections). Nil
	// disables them.
	Log *obs.Logger
}

func (o *Options) fill() {
	if o.BatchSize == 0 {
		o.BatchSize = 200
	}
	if o.BatchTimeout == 0 {
		o.BatchTimeout = 200 * time.Millisecond
	}
	if o.Parallelism == 0 {
		o.Parallelism = parallel.Default()
	}
	if o.Now == nil {
		o.Now = clock.UnixMicro
	}
}

type pending struct {
	tx   *types.Transaction
	done chan error
}

// Broker is the single-partition ordering service.
type Broker struct {
	opts Options

	mu          sync.Mutex
	subscribers []consensus.Committer
	queue       []pending
	running     bool
	stopCh      chan struct{}
	wakeCh      chan struct{}
	doneCh      chan struct{}
}

// ErrStopped is returned by Submit after the broker stops.
var ErrStopped = errors.New("kafka: broker stopped")

// ErrRejected is returned by Submit when RequireSigs is set and the
// transaction carries no valid sender signature.
var ErrRejected = errors.New("kafka: transaction rejected: invalid sender signature")

// New returns a broker with the given options.
func New(opts Options) *Broker {
	opts.fill()
	return &Broker{opts: opts}
}

// Subscribe registers a node's committer; every decided batch is
// delivered to all subscribers in the same order. Must be called before
// Start.
func (b *Broker) Subscribe(c consensus.Committer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subscribers = append(b.subscribers, c)
}

// Start launches the batching loop.
func (b *Broker) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running {
		return errors.New("kafka: already started")
	}
	b.running = true
	b.stopCh = make(chan struct{})
	b.wakeCh = make(chan struct{}, 1)
	b.doneCh = make(chan struct{})
	go b.run()
	return nil
}

// Stop drains the queue and shuts the broker down.
func (b *Broker) Stop() error {
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return nil
	}
	b.running = false
	close(b.stopCh)
	b.mu.Unlock()
	<-b.doneCh
	return nil
}

// Submit publishes a transaction and blocks until its batch is
// committed on every subscriber.
func (b *Broker) Submit(tx *types.Transaction) error {
	done := make(chan error, 1)
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return ErrStopped
	}
	b.queue = append(b.queue, pending{tx: tx, done: done})
	full := len(b.queue) >= b.opts.BatchSize
	b.mu.Unlock()
	if full {
		select {
		case b.wakeCh <- struct{}{}:
		default:
		}
	}
	return <-done
}

// run is the single packaging goroutine.
func (b *Broker) run() {
	defer close(b.doneCh)
	timer := time.NewTimer(b.opts.BatchTimeout)
	defer timer.Stop()
	for {
		select {
		case <-b.stopCh:
			b.cut(true) // drain
			b.failRemaining()
			return
		case <-b.wakeCh:
			b.cut(false)
		case <-timer.C:
			b.cut(true)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(b.opts.BatchTimeout)
	}
}

// cut delivers full batches while the queue holds at least BatchSize
// transactions. With partial set (batch timeout, shutdown) it then
// delivers the remainder as one final partial batch; a size wake-up
// leaves the remainder queued to fill up, so a partial batch is cut
// only when BatchTimeout elapses.
func (b *Broker) cut(partial bool) {
	for {
		b.mu.Lock()
		n := len(b.queue)
		if n == 0 || (n < b.opts.BatchSize && !partial) {
			b.mu.Unlock()
			return
		}
		if n > b.opts.BatchSize {
			n = b.opts.BatchSize
		}
		batch := b.queue[:n:n]
		b.queue = b.queue[n:]
		subs := b.subscribers
		b.mu.Unlock()

		// full is decided before signature filtering: a cut that drained a
		// partial queue stays the last one even if rejections shrank it.
		full := len(batch) >= b.opts.BatchSize
		if b.opts.RequireSigs {
			start := b.opts.Now()
			batch = b.checkBatch(batch)
			mCheckMicros.Observe(b.opts.Now() - start)
		}
		if len(batch) == 0 {
			if !full {
				return
			}
			continue
		}

		txs := make([]*types.Transaction, len(batch))
		for i, p := range batch {
			txs[i] = p.tx
		}
		ts := b.opts.Now()
		mBatches.Inc()
		mBatchTxs.Observe(int64(len(txs)))
		var err error
		for _, sub := range subs {
			// Each node packages the identical ordered batch; the clones
			// keep per-node Tid assignment from aliasing across engines.
			if _, e := sub.CommitBlock(cloneTxs(txs), ts); e != nil && err == nil {
				err = e
			}
		}
		mCommitMicros.Observe(b.opts.Now() - ts)
		for _, p := range batch {
			p.done <- err
		}
		if !full {
			return
		}
	}
}

// checkBatch verifies the batch's sender signatures with the worker
// pool, replies ErrRejected to the failing submissions, and returns the
// survivors in their original order.
func (b *Broker) checkBatch(batch []pending) []pending {
	ok := make([]bool, len(batch))
	// Verification cannot fail as a task, so Ordered's error is always
	// nil; the per-index results land in ok.
	_ = parallel.Ordered(b.opts.Parallelism, len(batch), //sebdb:ignore-err tasks always return nil; results land in ok
		func(i int) (bool, error) { return batch[i].tx.VerifySig(), nil },
		func(i int, v bool) error { ok[i] = v; return nil })
	kept := make([]pending, 0, len(batch))
	for i, p := range batch {
		if ok[i] {
			kept = append(kept, p)
			continue
		}
		mRejected.Inc()
		b.opts.Log.Warn("transaction rejected",
			"sender", p.tx.SenID, "table", p.tx.Tname, "reason", "bad signature")
		p.done <- ErrRejected
	}
	return kept
}

func (b *Broker) failRemaining() {
	b.mu.Lock()
	rest := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, p := range rest {
		p.done <- ErrStopped
	}
}

func cloneTxs(txs []*types.Transaction) []*types.Transaction {
	out := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		c := *tx
		out[i] = &c
	}
	return out
}

var _ consensus.Consensus = (*Broker)(nil)
