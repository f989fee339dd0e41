package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/types"
)

// The traced pass records spans from the benchmark's own files, around
// its calls into each module's public functions; nothing inside the
// program is instrumented. Spans stay in memory and are written out
// once the pass ends.

// span is one timed call. parent is -1 for an op's root span.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer collects spans. Chain reads may arrive from the executor's
// worker goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records an already-measured span and returns its id.
func (t *tracer) add(name string, op, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// tree is the analysed span set: children per span, in id order.
type tree struct {
	spans    []span
	children [][]int
}

func (t *tracer) tree() *tree {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	tr := &tree{spans: spans, children: make([][]int, len(spans))}
	for i, s := range spans {
		if s.parent >= 0 {
			tr.children[s.parent] = append(tr.children[s.parent], i)
		}
	}
	return tr
}

func (tr *tree) dur(id int) time.Duration { return tr.spans[id].end - tr.spans[id].start }

// covered returns how much of span id's interval its children cover
// (the union of their intervals, so parallel children count once).
func (tr *tree) covered(id int) time.Duration {
	kids := tr.children[id]
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{tr.spans[k].start, tr.spans[k].end})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// self is a span's duration minus the time its children cover.
func (tr *tree) self(id int) time.Duration { return tr.dur(id) - tr.covered(id) }

// unattributed is a root span's duration minus the summed durations of
// its direct children: the op time no layer span accounts for.
func (tr *tree) unattributed(id int) time.Duration {
	d := tr.dur(id)
	for _, k := range tr.children[id] {
		d -= tr.dur(k)
	}
	return d
}

// write dumps the spans as tab-separated lines (name, op, parent,
// start_ns, end_ns) to path.
func (tr *tree) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tparent\tstart_ns\tend_ns")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close() //sebdb:ignore-err the flush error is the one reported
		return err
	}
	return f.Close()
}

// spanFile is where a traced pass leaves its spans: a traces directory
// beside the run's data directory, which is removed when the run ends.
func spanFile(o options) string {
	return filepath.Join(filepath.Dir(o.dir), "traces", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
}

// tracedChain times the Block and Tx reads an executor makes through a
// pinned core.View. The embedded view still supplies Parallelism and
// Obs, so the executor takes the same parallel path and reports to the
// same registry as it does under Engine.ExecuteAs.
type tracedChain struct {
	*core.View
	tr     *tracer
	op     int
	parent int
}

func (c *tracedChain) Block(bid uint64) (*types.Block, error) {
	id := c.tr.begin("core.block_read", c.op, c.parent)
	b, err := c.View.Block(bid)
	c.tr.end(id)
	return b, err
}

func (c *tracedChain) Tx(bid uint64, pos uint32) (*types.Transaction, error) {
	id := c.tr.begin("core.tx_read", c.op, c.parent)
	tx, err := c.View.Tx(bid, pos)
	c.tr.end(id)
	return tx, err
}

// tracedCommitter times CommitBlock as the consensus broker calls it.
type tracedCommitter struct {
	eng   *core.Engine
	tr    *tracer
	mu    sync.Mutex
	calls []commitCall
}

type commitCall struct{ enter, exit time.Duration }

func (c *tracedCommitter) CommitBlock(txs []*types.Transaction, ts int64) (*types.Block, error) {
	enter := c.tr.now()
	b, err := c.eng.CommitBlock(txs, ts)
	exit := c.tr.now()
	c.mu.Lock()
	c.calls = append(c.calls, commitCall{enter, exit})
	c.mu.Unlock()
	return b, err
}

// tracedNode times the QueryNode calls a thin client makes. The op and
// parent are set by the client loop before each call; the client is a
// single goroutine, so no lock is needed for them.
type tracedNode struct {
	node.QueryNode
	tr     *tracer
	op     int
	parent int
}

func (n *tracedNode) AuthQuery(r *node.AuthRequest) (*auth.Answer, error) {
	id := n.tr.begin("node.auth_query", n.op, n.parent)
	a, err := n.QueryNode.AuthQuery(r)
	n.tr.end(id)
	return a, err
}

func (n *tracedNode) AuthDigest(r *node.AuthRequest) ([32]byte, error) {
	id := n.tr.begin("node.auth_digest", n.op, n.parent)
	d, err := n.QueryNode.AuthDigest(r)
	n.tr.end(id)
	return d, err
}

func (n *tracedNode) SQL(q string) (*core.Result, error) {
	id := n.tr.begin("node.sql", n.op, n.parent)
	res, err := n.QueryNode.SQL(q)
	n.tr.end(id)
	return res, err
}
