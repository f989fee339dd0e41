package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sebdb/internal/bench"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
)

// query-mix: the read path on a chain larger than the block cache.
// Q2, Q3, Q4, Q5 and Q7 run through Engine.ExecuteAs while consensus,
// auth and network are idle, so a gain in sqlparser, exec, index,
// cache or storage reads shows here.

const (
	qmQ2 = iota
	qmQ3
	qmQ4
	qmQ5
	qmQ7
)

var qmKindNames = [...]string{"Q2", "Q3", "Q4", "Q5", "Q7"}

const (
	q2Blocks = 20 // TRACE window of Q2
	q3Blocks = 50 // TRACE window of Q3
	q5Blocks = 4  // join WINDOW of Q5
)

type qmOp struct {
	kind int
	sql  string
	want int
	// height is Q7's block; the answer's height column must match it.
	height int
}

type qmInstance struct {
	eng      *core.Engine
	ops      []qmOp
	warm     int
	segBytes int64
}

func (q *qmInstance) close() { q.eng.Close() } //sebdb:ignore-err read-only engine; its directory is discarded

// qmGroup is the op mix: every ten consecutive ops hold exactly this
// multiset (30% Q2, 20% Q3, 20% Q4, 10% Q5, 20% Q7) in seeded order.
var qmGroup = []int{qmQ2, qmQ2, qmQ2, qmQ3, qmQ3, qmQ4, qmQ4, qmQ5, qmQ7, qmQ7}

// genQueryOps draws the op sequence; windows and blocks are skewed
// toward the tip.
func genQueryOps(seed int64, n int, tr *truth, blocks int) []qmOp {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	rb := newRecentBlock(rng, blocks)
	ops := make([]qmOp, n)
	var kinds []int
	for i := range ops {
		if len(kinds) == 0 {
			kinds = append(kinds, qmGroup...)
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		kind := kinds[0]
		kinds = kinds[1:]
		var op qmOp
		switch kind {
		case qmQ2:
			b0, b1 := rb.window(q2Blocks)
			s := rng.Intn(numSenders)
			op = qmOp{kind: qmQ2, want: tr.trackCount(b0, b1, s, -1),
				sql: fmt.Sprintf(`TRACE [%d,%d] OPERATOR = "%s"`, blockTS(b0+1), blockTS(b1+1), senderName(s))}
		case qmQ3:
			b0, b1 := rb.window(q3Blocks)
			s, t := rng.Intn(numSenders), rng.Intn(3)
			op = qmOp{kind: qmQ3, want: tr.trackCount(b0, b1, s, t),
				sql: fmt.Sprintf(`TRACE [%d,%d] OPERATOR = "%s", OPERATION = "%s"`,
					blockTS(b0+1), blockTS(b1+1), senderName(s), tables[t])}
		case qmQ4:
			lo := resultLo + rng.Intn(resultSpan-q4Width)
			hi := lo + q4Width - 1
			op = qmOp{kind: qmQ4, want: tr.rangeCount(lo, hi),
				sql: fmt.Sprintf(`SELECT * FROM donate WHERE amount BETWEEN %d AND %d`, lo, hi)}
		case qmQ5:
			b0, b1 := rb.window(q5Blocks)
			op = qmOp{kind: qmQ5, want: tr.joinCount(b0, b1),
				sql: fmt.Sprintf(`SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization WINDOW [%d,%d]`,
					blockTS(b0+1), blockTS(b1+1))}
		default:
			h := rb.next() + 1
			op = qmOp{kind: qmQ7, want: 1, height: h, sql: fmt.Sprintf(`GET BLOCK ID=%d`, h)}
		}
		ops[i] = op
	}
	return ops
}

// buildQueryMix generates and loads the chain, builds the layered
// indexes, draws the op sequence and warms the cache with its prefix.
func buildQueryMix(o options, dir string) (*qmInstance, error) {
	eng, err := core.Open(core.Config{
		Dir:           dir,
		CacheMode:     core.CacheBlocks,
		CacheBytes:    o.size.qmCacheBytes,
		DefaultSender: "bench",
	})
	if err != nil {
		return nil, err
	}
	q := &qmInstance{eng: eng, warm: o.size.qmWarm}
	fail := func(err error) (*qmInstance, error) {
		q.close()
		return nil, err
	}
	if err := bench.SetupSchema(eng); err != nil {
		return fail(err)
	}
	tr, err := loadChain(eng, rand.New(rand.NewSource(o.seed)), o.size.qmBlocks, o.size.qmTxs)
	if err != nil {
		return fail(err)
	}
	for _, ix := range [][2]string{{"donate", "amount"}, {"transfer", "organization"}, {"distribute", "organization"}} {
		if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
			return fail(err)
		}
	}
	if q.segBytes, err = eng.DiskBytes(); err != nil {
		return fail(err)
	}
	q.ops = genQueryOps(o.seed, q.warm+opCount(o, o.size.qmRate), tr, o.size.qmBlocks)
	if o.wrongExpect {
		q.ops[q.warm].want++
	}
	for i := 0; i < q.warm; i++ {
		if _, err := q.exec(i); err != nil {
			return fail(fmt.Errorf("warm-up op %d: %w", i, err))
		}
	}
	return q, nil
}

// exec runs op i through ExecuteAs and checks its answer, returning
// the row count.
func (q *qmInstance) exec(i int) (int, error) {
	op := q.ops[i]
	res, err := q.eng.ExecuteAs("bench", op.sql)
	if err != nil {
		return 0, err
	}
	if err := q.check(op, len(res.Rows), func() int64 { return res.Rows[0][0].I }); err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// check compares an answer with the generator's ground truth.
func (q *qmInstance) check(op qmOp, rows int, height func() int64) error {
	if rows != op.want {
		return fmt.Errorf("%s %q returned %d rows, want %d", qmKindNames[op.kind], op.sql, rows, op.want)
	}
	if op.kind == qmQ7 && height() != int64(op.height) {
		return fmt.Errorf("%q returned block %d", op.sql, height())
	}
	return nil
}

// qmPass is what an untraced pass measured.
type qmPass struct {
	attempted, failed int
	errs              []string
	w                 *window
	byKind            [5][]float64 // ms
	rows              []int        // per timed op, for the traced pass's check
}

// untraced runs the closed loop over the timed ops: one op at a time,
// each timed from call to answer.
func (q *qmInstance) untraced(o options) *qmPass {
	n := len(q.ops) - q.warm
	p := &qmPass{w: newWindow(n)}
	for j := 0; j < n && !p.w.capped(o); j++ {
		i := q.warm + j
		t0 := time.Now()
		rows, err := q.exec(i)
		lat := time.Since(t0)
		p.attempted++
		p.rows = append(p.rows, rows)
		if err != nil {
			p.failed++
			p.errs = appendErr(p.errs, err)
			continue
		}
		p.w.record(j, lat)
		k := q.ops[i].kind
		p.byKind[k] = append(p.byKind[k], ms(lat))
	}
	p.w.finish()
	return p
}

// appendErr keeps the first few gate violations.
func appendErr(errs []string, err error) []string {
	if len(errs) < 5 {
		errs = append(errs, err.Error())
	}
	return errs
}

func runQueryMix(o options) (*outcome, error) {
	build := func(dir string) (*qmInstance, error) { return buildQueryMix(o, dir) }
	q, setup, err := timedSetups(o, build, (*qmInstance).close)
	if err != nil {
		return nil, err
	}
	p := q.untraced(o)
	out := &outcome{attempted: p.attempted, failed: p.failed, errs: p.errs,
		metrics: map[string]metric{}, extra: map[string]metric{}}
	out.settings = []string{
		fmt.Sprintf("chain %d blocks x %d txs, segment bytes %d, block cache bytes %d (%.2f of segments)",
			o.size.qmBlocks, o.size.qmTxs, q.segBytes, o.size.qmCacheBytes, float64(o.size.qmCacheBytes)/float64(q.segBytes)),
		"storage pread, no compression, no writes in the window; layered indexes on donate.amount, transfer.organization, distribute.organization",
		fmt.Sprintf("warm-up %d ops, timed ops %d", q.warm, p.attempted),
	}
	diskPerTx := float64(q.segBytes) / float64(chainTxs(q.eng))
	q.close()
	if !o.trace {
		commonMetrics(out, o, setup, p.w, diskPerTx, p.w.per)
		opsGate(out, o, len(p.w.all), "ops")
		out.extra["trace_p50_ms"] = metric{median(append(append([]float64(nil), p.byKind[qmQ2]...), p.byKind[qmQ3]...)), "ms"}
		out.extra["range_p50_ms"] = metric{median(p.byKind[qmQ4]), "ms"}
		out.extra["join_p50_ms"] = metric{median(p.byKind[qmQ5]), "ms"}
		return out, nil
	}
	untracedP50 := median(msValues(p.w.all))
	q2, err := buildQueryMix(o, filepath.Join(o.dir, "traced"))
	if err != nil {
		return nil, err
	}
	defer q2.close()
	if err := q2.traced(o, p, untracedP50, out); err != nil {
		return nil, err
	}
	return out, nil
}

// traced replays the untraced pass's ops, each as parse, then the
// public exec entry point over a timing wrapper of the current view,
// then a row-count check against the untraced pass.
func (q *qmInstance) traced(o options, p *qmPass, untracedP50 float64, out *outcome) error {
	tr := newTracer()
	c0 := q.eng.CacheStats()
	var st exec.Stats
	rowsTotal := 0
	var parseExec []float64
	roots := make([]int, 0, len(p.rows))
	for j, wantRows := range p.rows {
		i := q.warm + j
		op := q.ops[i]
		method := exec.MethodLayered
		if op.kind == qmQ4 {
			m, err := explainMethod(q.eng, op.sql)
			if err != nil {
				return err
			}
			method = m
		}
		root := tr.begin("op", j, -1)
		ps := tr.begin("sqlparser.parse", j, root)
		stmt, err := sqlparser.Parse(op.sql)
		tr.end(ps)
		if err != nil {
			return err
		}
		view := q.eng.CurrentView()
		es := tr.begin("exec", j, root)
		cw := &tracedChain{View: view, tr: tr, op: j, parent: es}
		rows, height, ost, err := execStmt(cw, stmt, method)
		tr.end(es)
		if err == nil {
			err = q.check(op, rows, func() int64 { return height })
		}
		if err == nil && rows != wantRows {
			err = fmt.Errorf("traced %q returned %d rows, untraced %d", op.sql, rows, wantRows)
		}
		tr.end(root)
		roots = append(roots, root)
		if err != nil {
			out.errs = appendErr(out.errs, err)
			continue
		}
		st.BlocksRead += ost.BlocksRead
		st.TxsExamined += ost.TxsExamined
		st.IndexProbes += ost.IndexProbes
		rowsTotal += rows
	}
	c1 := q.eng.CacheStats()
	t := tr.tree()
	if err := t.write(spanFile(o)); err != nil {
		return err
	}

	var parse, self, unattr, opLat, blockRead, txRead []float64
	reads := 0
	for _, root := range roots {
		var pe time.Duration
		for _, k := range t.children[root] {
			switch t.spans[k].name {
			case "sqlparser.parse":
				parse = append(parse, us(t.dur(k)))
				pe += t.dur(k)
			case "exec":
				self = append(self, us(t.self(k)))
				pe += t.dur(k)
				for _, r := range t.children[k] {
					reads++
					if t.spans[r].name == "core.block_read" {
						blockRead = append(blockRead, us(t.dur(r)))
					} else {
						txRead = append(txRead, us(t.dur(r)))
					}
				}
			}
		}
		parseExec = append(parseExec, us(pe))
		unattr = append(unattr, us(t.unattributed(root)))
		opLat = append(opLat, ms(t.dur(root)))
	}
	n := float64(len(roots))
	if n == 0 {
		n = 1
	}
	lookups := float64((c1.Hits - c0.Hits) + (c1.Misses - c0.Misses))
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(c1.Hits-c0.Hits) / lookups
	}
	perRow := 0.0
	if rowsTotal > 0 {
		perRow = float64(st.TxsExamined) / float64(rowsTotal)
	}
	out.metrics = layerMetrics(map[string]float64{
		"sqlparser.parse_us":        median(parse),
		"exec.self_us":              median(self),
		"exec.index_probes_per_op":  float64(st.IndexProbes) / n,
		"exec.blocks_read_per_op":   float64(st.BlocksRead) / n,
		"exec.txs_examined_per_row": perRow,
		"core.block_read_us":        median(blockRead),
		"core.tx_read_us":           median(txRead),
		"core.chain_reads_per_op":   float64(reads) / n,
		"cache.hit_ratio":           hitRatio,
		"cache.evictions_per_op":    float64(c1.Evictions-c0.Evictions) / n,
		"cache.contention_per_op":   float64(c1.Contention-c0.Contention) / n,
		"core.stmt_residual_us":     untracedP50*1000 - median(parseExec),
		"bench.unattributed_us":     median(unattr),
		"bench.traced_op_p50_ms":    median(opLat),
		"bench.untraced_op_p50_ms":  untracedP50,
	})
	out.settings = append(out.settings, fmt.Sprintf("traced pass: %d ops, %d spans in %s", len(roots), len(t.spans), spanFile(o)))
	return nil
}

// explainMethod returns the access method Engine.Explain reports for a
// SELECT.
func explainMethod(e *core.Engine, sql string) (exec.Method, error) {
	res, err := e.Explain(sql)
	if err != nil {
		return 0, err
	}
	switch name := res.Rows[0][0].S; name {
	case exec.MethodScan.String():
		return exec.MethodScan, nil
	case exec.MethodBitmap.String():
		return exec.MethodBitmap, nil
	case exec.MethodLayered.String():
		return exec.MethodLayered, nil
	default:
		return 0, fmt.Errorf("explain reported unknown method %q", name)
	}
}

// execStmt runs a parsed statement through the public exec entry point
// the engine uses for it, returning the row count (and, for GET BLOCK,
// the block height).
func execStmt(c *tracedChain, stmt sqlparser.Statement, method exec.Method) (int, int64, exec.Stats, error) {
	switch s := stmt.(type) {
	case *sqlparser.Trace:
		txs, st, err := exec.Track(c, s, exec.MethodLayered)
		return len(txs), 0, st, err
	case *sqlparser.Select:
		txs, st, err := exec.Select(c, s.Table.Name, s.Where, s.Window, method)
		return len(txs), 0, st, err
	case *sqlparser.Join:
		m := exec.MethodBitmap
		if c.Layered(s.Left.Name, s.LeftCol) != nil && c.Layered(s.Right.Name, s.RightCol) != nil {
			m = exec.MethodLayered
		}
		rows, st, err := exec.OnChainJoin(c, s.Left.Name, s.Right.Name, s.LeftCol, s.RightCol, s.Window, m)
		return len(rows), 0, st, err
	case *sqlparser.GetBlock:
		bid := uint64(s.Val)
		if !c.BlockIdx().ByBlockID(bid) {
			return 0, 0, exec.Stats{}, fmt.Errorf("no block %d", bid)
		}
		b, err := c.Block(bid)
		if err != nil {
			return 0, 0, exec.Stats{}, err
		}
		return 1, int64(b.Header.Height), exec.Stats{}, nil
	default:
		return 0, 0, exec.Stats{}, fmt.Errorf("unexpected statement %T", stmt)
	}
}
