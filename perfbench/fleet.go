package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/bench"
	"sebdb/internal/core"
	"sebdb/internal/index/bitmap"
	"sebdb/internal/node"
	"sebdb/internal/replica"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// verified-fleet: verified answers and replication, writes beside
// reads. A leader full node on loopback TCP feeds one follower (its own
// engine and node), which serves a thin client; every tenth op the
// leader commits a block and the client waits until the follower shows
// it. network/node round trips, auth/mbtree VO build and verify,
// replica push and apply, and thinclient verification are loaded.

const (
	fleetSQL = iota
	fleetAuthQuery
	fleetAuthTrack
	fleetCommit
)

var fleetKindNames = [...]string{"sql", "auth-query", "auth-track", "commit"}

// fleetTrackBlocks is the window of the verified Q2 track.
const fleetTrackBlocks = 50

// fleetCommitEvery makes every tenth op a leader commit.
const fleetCommitEvery = 10

type fleetOp struct {
	kind   int
	sql    string
	req    *node.AuthRequest // auth-query; auth-track uses its window
	want   int
	height int // Q7 answers must carry this block height
}

type fleetInstance struct {
	leader, follower         *core.Engine
	leaderNode, followerNode *node.FullNode
	tail                     *replica.Follower
	leaderRPC, followerRPC   *node.Remote
	// leaderQN/followerQN are what the router and client call: the
	// remotes themselves, or timing wrappers around them when traced.
	leaderQN, followerQN node.QueryNode
	router               *thinclient.Router
	client               *thinclient.Client
	ops                  []fleetOp
	commitRng            *rand.Rand
	closed               bool
}

func (f *fleetInstance) close() {
	if f.closed {
		return
	}
	f.closed = true
	if f.leaderRPC != nil {
		f.leaderRPC.Close() //sebdb:ignore-err teardown of a loopback connection
	}
	if f.followerRPC != nil {
		f.followerRPC.Close() //sebdb:ignore-err teardown of a loopback connection
	}
	if f.tail != nil {
		f.tail.Stop()
	}
	if f.followerNode != nil {
		f.followerNode.Close() //sebdb:ignore-err teardown; the listener is discarded
	}
	if f.leaderNode != nil {
		f.leaderNode.Close() //sebdb:ignore-err teardown; the listener is discarded
	}
	if f.follower != nil {
		f.follower.Close() //sebdb:ignore-err teardown of a discarded chain
	}
	if f.leader != nil {
		f.leader.Close() //sebdb:ignore-err teardown of a discarded chain
	}
}

// waitHeight blocks until e's height reaches h, waking on the engine's
// HeightSignal rather than polling a timer.
func waitHeight(e *core.Engine, h uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		sig := e.HeightSignal()
		if e.Height() >= h {
			return nil
		}
		select {
		case <-sig:
		case <-deadline.C:
			return fmt.Errorf("height %d not reached within %v (at %d)", h, timeout, e.Height())
		}
	}
}

// fleetReads is the read mix of twenty consecutive ops (the other two
// are commits): 9 Router.SQL reads, alternately 5 Q4 + 4 Q7 and 4 Q4 +
// 5 Q7, 7 AuthQuery Q4 and 2 AuthTrack Q2 (50/39/11%), in seeded order.
const (
	fleetSQLQ4 = iota
	fleetSQLQ7
	fleetAQ
	fleetAT
)

var fleetReads = [2][]int{
	{fleetSQLQ4, fleetSQLQ4, fleetSQLQ4, fleetSQLQ4, fleetSQLQ4, fleetSQLQ7, fleetSQLQ7, fleetSQLQ7, fleetSQLQ7,
		fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAT, fleetAT},
	{fleetSQLQ4, fleetSQLQ4, fleetSQLQ4, fleetSQLQ4, fleetSQLQ7, fleetSQLQ7, fleetSQLQ7, fleetSQLQ7, fleetSQLQ7,
		fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAQ, fleetAT, fleetAT},
}

// genFleetOps draws the op sequence: every tenth op a commit, the rest
// Router.SQL reads, AuthQuery Q4 and AuthTrack Q2 of the low-volume
// operator org1 as fleetReads fixes.
func genFleetOps(seed int64, n int, tr *truth, blocks int) []fleetOp {
	rng := rand.New(rand.NewSource(seed*6151 + 29))
	rb := newRecentBlock(rng, blocks)
	q4 := func() (int, int) {
		lo := resultLo + rng.Intn(resultSpan-q4Width)
		return lo, lo + q4Width - 1
	}
	ops := make([]fleetOp, n)
	var reads []int
	for i := range ops {
		if i%fleetCommitEvery == fleetCommitEvery-1 {
			ops[i] = fleetOp{kind: fleetCommit}
			continue
		}
		if len(reads) == 0 {
			reads = append(reads, fleetReads[(i/20)%2]...)
			rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
		}
		read := reads[0]
		reads = reads[1:]
		switch read {
		case fleetSQLQ4:
			lo, hi := q4()
			ops[i] = fleetOp{kind: fleetSQL, want: tr.rangeCount(lo, hi),
				sql: fmt.Sprintf(`SELECT * FROM donate WHERE amount BETWEEN %d AND %d`, lo, hi)}
		case fleetSQLQ7:
			h := rb.next() + 1
			ops[i] = fleetOp{kind: fleetSQL, want: 1, height: h, sql: fmt.Sprintf(`GET BLOCK ID=%d`, h)}
		case fleetAQ:
			lo, hi := q4()
			ops[i] = fleetOp{kind: fleetAuthQuery, want: tr.rangeCount(lo, hi),
				req: &node.AuthRequest{Table: "donate", Col: "amount",
					Lo: types.Dec(float64(lo)), Hi: types.Dec(float64(hi))}}
		case fleetAT:
			b0, b1 := rb.window(fleetTrackBlocks)
			ops[i] = fleetOp{kind: fleetAuthTrack, want: tr.trackCount(b0, b1, 0, -1),
				req: &node.AuthRequest{Table: "", Col: "senid",
					Lo: types.Str(senderName(0)), Hi: types.Str(senderName(0)),
					WinStart: blockTS(b0 + 1), WinEnd: blockTS(b1 + 1)}}
		}
	}
	return ops
}

// fleetIndexes are node-local configuration: each node builds its own
// from its verified chain.
func fleetIndexes(e *core.Engine) error {
	if err := e.CreateIndex("donate", "amount"); err != nil {
		return err
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		return err
	}
	return e.CreateAuthIndex("", "senid")
}

// buildFleet loads the leader, starts both nodes and the follower,
// waits for the follower to catch up, and connects the thin client.
func buildFleet(o options, dir string, tr *tracer) (*fleetInstance, error) {
	f := &fleetInstance{commitRng: rand.New(rand.NewSource(o.seed*31 + 7))}
	fail := func(err error) (*fleetInstance, error) {
		f.close()
		return nil, err
	}
	cfg := func(sub string) core.Config {
		// The default block cache holds the whole chain: this is the
		// fits-in-cache counterpart of query-mix. Sync stays off.
		return core.Config{Dir: filepath.Join(dir, sub), CacheMode: core.CacheBlocks, DefaultSender: "bench"}
	}
	var err error
	if f.leader, err = core.Open(cfg("leader")); err != nil {
		return fail(err)
	}
	if err := bench.SetupSchema(f.leader); err != nil {
		return fail(err)
	}
	truth, err := loadChain(f.leader, rand.New(rand.NewSource(o.seed)), o.size.fleetBlocks, o.size.fleetTxs)
	if err != nil {
		return fail(err)
	}
	if err := fleetIndexes(f.leader); err != nil {
		return fail(err)
	}
	f.leaderNode = node.New(f.leader)
	leaderAddr, err := f.leaderNode.Serve("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}

	if f.follower, err = core.Open(cfg("follower")); err != nil {
		return fail(err)
	}
	f.follower.SetFollower(true)
	f.followerNode = node.New(f.follower)
	followerAddr, err := f.followerNode.Serve("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	f.tail = replica.StartFollower(f.follower, replica.FollowerConfig{Leader: leaderAddr, Backoff: 20 * time.Millisecond})
	if err := waitHeight(f.follower, f.leader.Height(), time.Minute); err != nil {
		return fail(fmt.Errorf("follower catch-up: %w", err))
	}
	if err := fleetIndexes(f.follower); err != nil {
		return fail(err)
	}

	if f.leaderRPC, err = node.DialNode(leaderAddr); err != nil {
		return fail(err)
	}
	if f.followerRPC, err = node.DialNode(followerAddr); err != nil {
		return fail(err)
	}
	f.leaderQN, f.followerQN = f.leaderRPC, f.followerRPC
	if tr != nil {
		f.leaderQN = &tracedNode{QueryNode: f.leaderRPC, tr: tr}
		f.followerQN = &tracedNode{QueryNode: f.followerRPC, tr: tr}
	}
	f.router = thinclient.NewRouter(f.leaderQN, f.followerQN)
	f.client = thinclient.New(o.seed)
	f.ops = genFleetOps(o.seed, opCount(o, o.size.fleetRate), truth, o.size.fleetBlocks)
	if o.wrongExpect {
		for i := range f.ops {
			if f.ops[i].kind == fleetAuthQuery {
				f.ops[i].want++
				break
			}
		}
	}
	if err := f.client.SyncHeaders(f.followerQN); err != nil {
		return fail(fmt.Errorf("thin client header sync: %w", err))
	}
	return f, nil
}

// commitTxs draws one leader commit: filler donations from org2..org21
// below every Q4 range, so no expected answer changes.
func (f *fleetInstance) commitTxs(n int, ts int64) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{Ts: ts, SenID: senderName(1 + f.commitRng.Intn(numSenders-1)), Tname: "donate",
			Args: []types.Value{
				types.Str(fmt.Sprintf("donor%06d", f.commitRng.Intn(1_000_000))),
				types.Str(fmt.Sprintf("project%02d", f.commitRng.Intn(50))),
				types.Dec(float64(f.commitRng.Intn(fillerMax))),
			}}
	}
	return txs
}

// fleetResult is one op's outcome.
type fleetResult struct {
	rows  int
	stats thinclient.Stats
	// visible runs from the leader's CommitBlock call until the
	// follower's height covers the block.
	visible time.Duration
}

// do runs op i and checks its answer against the generator. With a
// tracer (the traced pass) each client step becomes a child span of
// root, and the node wrappers file their calls under that step.
func (f *fleetInstance) do(i int, commitTxs int, tr *tracer, root int) (fleetResult, error) {
	var res fleetResult
	op := f.ops[i]
	step := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.begin(name, i, root)
		for _, qn := range []node.QueryNode{f.leaderQN, f.followerQN} {
			tn := qn.(*tracedNode)
			tn.op, tn.parent = i, id
		}
		err := fn()
		tr.end(id)
		return err
	}
	switch op.kind {
	case fleetCommit:
		target := f.leader.Height() + 1
		txs := f.commitTxs(commitTxs, blockTS(int(target)))
		t0 := time.Now()
		if err := step("core.leader_commit", func() error {
			_, err := f.leader.CommitBlock(txs, blockTS(int(target)))
			return err
		}); err != nil {
			return res, fmt.Errorf("leader commit: %w", err)
		}
		if err := step("replica.visible", func() error {
			return waitHeight(f.follower, target, 10*time.Second)
		}); err != nil {
			return res, err
		}
		res.visible = time.Since(t0)
		return res, step("thinclient.sync_headers", func() error { return f.client.SyncHeaders(f.followerQN) })
	case fleetSQL:
		var r *core.Result
		if err := step("thinclient.router_sql", func() (err error) {
			r, err = f.router.SQL(op.sql)
			return err
		}); err != nil {
			return res, err
		}
		res.rows = len(r.Rows)
		if op.height > 0 && len(r.Rows) == 1 && r.Rows[0][0].I != int64(op.height) {
			return res, fmt.Errorf("%q returned block %d", op.sql, r.Rows[0][0].I)
		}
	case fleetAuthQuery, fleetAuthTrack:
		full, aux := f.router.AuthTargets()
		var txs []*types.Transaction
		name := "thinclient.auth_query"
		if op.kind == fleetAuthTrack {
			name = "thinclient.auth_track"
		}
		if err := step(name, func() (err error) {
			if op.kind == fleetAuthQuery {
				txs, res.stats, err = f.client.AuthQuery(full, aux, op.req, thinclient.Options{})
			} else {
				txs, res.stats, err = f.client.AuthTrack(full, aux, op.req.Lo.S, "", op.req.WinStart, op.req.WinEnd, thinclient.Options{})
			}
			return err
		}); err != nil {
			return res, err
		}
		res.rows = len(txs)
	}
	if res.rows != op.want {
		return res, fmt.Errorf("%s op %d returned %d rows, want %d", fleetKindNames[op.kind], i, res.rows, op.want)
	}
	return res, nil
}

// fleetPass is what an untraced pass measured.
type fleetPass struct {
	attempted, failed int
	errs              []string
	w                 *window
	verified, visible []float64 // ms
}

func (f *fleetInstance) untraced(o options) *fleetPass {
	p := &fleetPass{w: newWindow(len(f.ops))}
	for i := 0; i < len(f.ops) && !p.w.capped(o); i++ {
		t0 := time.Now()
		res, err := f.do(i, o.size.fleetCommitTxs, nil, -1)
		lat := time.Since(t0)
		p.attempted++
		if err != nil {
			p.failed++
			p.errs = appendErr(p.errs, err)
			continue
		}
		p.w.record(i, lat)
		switch f.ops[i].kind {
		case fleetAuthQuery, fleetAuthTrack:
			p.verified = append(p.verified, ms(lat))
		case fleetCommit:
			p.visible = append(p.visible, ms(res.visible))
		}
	}
	p.w.finish()
	return p
}

// converged checks, after the window, that the follower reaches the
// leader's height with the same tip hash.
func (f *fleetInstance) converged() []string {
	lh := f.leader.Headers()
	if err := waitHeight(f.follower, uint64(len(lh)), 10*time.Second); err != nil {
		return []string{fmt.Sprintf("follower convergence: %v", err)}
	}
	fh := f.follower.Headers()
	if len(fh) != len(lh) || fh[len(fh)-1].Hash() != lh[len(lh)-1].Hash() {
		return []string{fmt.Sprintf("follower tip (height %d) differs from leader tip (height %d)", len(fh), len(lh))}
	}
	return nil
}

func runFleet(o options) (*outcome, error) {
	build := func(dir string) (*fleetInstance, error) { return buildFleet(o, dir, nil) }
	f, setup, err := timedSetups(o, build, (*fleetInstance).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	p := f.untraced(o)
	out := &outcome{attempted: p.attempted, failed: p.failed, errs: p.errs,
		metrics: map[string]metric{}, extra: map[string]metric{}}
	out.errs = append(out.errs, f.converged()...)
	disk, err := f.leader.DiskBytes()
	if err != nil {
		return nil, err
	}
	out.settings = []string{
		fmt.Sprintf("leader chain %d blocks x %d txs plus one %d-tx commit every %d ops; default block cache (holds the chain); leader Sync off",
			o.size.fleetBlocks, o.size.fleetTxs, o.size.fleetCommitTxs, fleetCommitEvery),
		"topology: leader FullNode and one follower (replica.StartFollower, own engine and node) on loopback TCP; thin client with 2 connections (leader, follower)",
		fmt.Sprintf("timed ops %d, leader height %d, leader disk bytes %d", p.attempted, f.leader.Height(), disk),
	}
	if !o.trace {
		commonMetrics(out, o, setup, p.w, float64(disk)/float64(chainTxs(f.leader)), p.w.per)
		opsGate(out, o, len(p.w.all), "ops")
		out.extra["verified_p50_ms"] = metric{median(p.verified), "ms"}
		out.extra["visible_p50_ms"] = metric{median(p.visible), "ms"}
		return out, nil
	}
	f.close()
	tr := newTracer()
	f2, err := buildFleet(o, filepath.Join(o.dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	defer f2.close()
	if err := f2.traced(o, tr, p, out); err != nil {
		return nil, err
	}
	out.errs = append(out.errs, f2.converged()...)
	return out, nil
}

// traced replays the untraced pass's op count with spans around each
// client step, then, outside the op, times a direct auth.Serve on the
// follower's ALI with the op's bounds.
func (f *fleetInstance) traced(o options, tr *tracer, p *fleetPass, out *outcome) error {
	var serve, voBytes, voBlocks, opLat []float64
	roots := make([]int, 0, p.attempted)
	for i := 0; i < p.attempted; i++ {
		root := tr.begin("op", i, -1)
		res, err := f.do(i, o.size.fleetCommitTxs, tr, root)
		tr.end(root)
		roots = append(roots, root)
		if err != nil {
			out.errs = appendErr(out.errs, err)
			continue
		}
		op := f.ops[i]
		if op.kind != fleetAuthQuery && op.kind != fleetAuthTrack {
			continue
		}
		voBytes = append(voBytes, float64(res.stats.VOSize))
		voBlocks = append(voBlocks, float64(res.stats.BlocksInAnswer))
		v := f.follower.CurrentView()
		ali := v.AuthIndex(op.req.Table, op.req.Col)
		var eligible *bitmap.Bitmap
		if op.req.WinStart != 0 || op.req.WinEnd != 0 {
			eligible = v.BlockIdx().TimeWindow(op.req.WinStart, op.req.WinEnd)
		}
		t0 := time.Now()
		auth.Serve(ali, v.Height(), eligible, op.req.Lo, op.req.Hi)
		serve = append(serve, us(time.Since(t0)))
	}
	t := tr.tree()
	if err := t.write(spanFile(o)); err != nil {
		return err
	}
	var authQ, authD, verify, sqlT, commit, visible, unattr []float64
	for _, root := range roots {
		opLat = append(opLat, ms(t.dur(root)))
		unattr = append(unattr, us(t.unattributed(root)))
		for _, k := range t.children[root] {
			switch t.spans[k].name {
			case "thinclient.auth_query", "thinclient.auth_track":
				verify = append(verify, us(t.self(k)))
				for _, c := range t.children[k] {
					switch t.spans[c].name {
					case "node.auth_query":
						authQ = append(authQ, us(t.dur(c)))
					case "node.auth_digest":
						authD = append(authD, us(t.dur(c)))
					}
				}
			case "thinclient.router_sql":
				for _, c := range t.children[k] {
					sqlT = append(sqlT, us(t.dur(c)))
				}
			case "core.leader_commit":
				commit = append(commit, us(t.dur(k)))
			case "replica.visible":
				visible = append(visible, us(t.dur(k)))
			}
		}
	}
	out.metrics = layerMetrics(map[string]float64{
		"node.auth_query_us":              median(authQ),
		"node.auth_digest_us":             median(authD),
		"thinclient.verify_us":            median(verify),
		"auth.serve_us":                   median(serve),
		"auth.vo_bytes_per_query":         mean(voBytes),
		"auth.vo_blocks_per_query":        mean(voBlocks),
		"node.sql_us":                     median(sqlT),
		"core.leader_commit_us":           median(commit),
		"replica.visible_after_commit_us": median(visible),
		"bench.unattributed_us":           median(unattr),
		"bench.traced_op_p50_ms":          median(opLat),
		"bench.untraced_op_p50_ms":        median(msValues(p.w.all)),
	})
	out.settings = append(out.settings, fmt.Sprintf("traced pass: %d ops, %d spans in %s", len(roots), len(t.spans), spanFile(o)))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
