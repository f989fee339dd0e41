package thinclient_test

import (
	"fmt"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/merkle"
	"sebdb/internal/node"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// cluster builds k identical full nodes (same committed chain) with
// ALIs on donate.amount and tname, plus a thin client synced to node 0.
func cluster(t testing.TB, k, nBlocks, txPerBlock int) ([]*node.FullNode, []node.QueryNode, *thinclient.Client) {
	t.Helper()
	var nodes []*node.FullNode
	var qn []node.QueryNode
	for i := 0; i < k; i++ {
		e, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 10, Signer: fmt.Sprintf("node%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		nodes = append(nodes, node.New(e))
		qn = append(qn, &node.Local{Node: nodes[i], Name: fmt.Sprintf("node%d", i)})
	}
	// Drive the same ordered batches into every node — what consensus
	// guarantees. Node 0's blocks are replayed on the others so all
	// chains are byte-identical.
	e0 := nodes[0].Engine
	if _, err := e0.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		t.Fatal(err)
	}
	if err := e0.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for b := 0; b < nBlocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < txPerBlock; i++ {
			tx, err := e0.NewTransaction(fmt.Sprintf("org%d", seq%3), "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%02d", seq%5)),
				types.Str("education"),
				types.Dec(float64(seq)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(b+1) * 1000
			batch = append(batch, tx)
			seq++
		}
		if _, err := e0.CommitBlock(batch, int64(b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	for h := uint64(0); h < e0.Height(); h++ {
		blk, err := e0.CurrentView().Block(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < k; i++ {
			if err := nodes[i].Engine.ApplyBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < k; i++ {
		if err := nodes[i].Engine.CreateAuthIndex("donate", "amount"); err != nil {
			t.Fatal(err)
		}
		if err := nodes[i].Engine.CreateAuthIndex("", "tname"); err != nil {
			t.Fatal(err)
		}
	}
	tc := thinclient.New(1)
	if err := tc.SyncHeaders(qn[0]); err != nil {
		t.Fatal(err)
	}
	return nodes, qn, tc
}

func TestAuthQueryHappyPath(t *testing.T) {
	_, qn, tc := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(15), Hi: types.Dec(30)}
	txs, st, err := tc.AuthQuery(qn[0], qn[1:], req,
		thinclient.Options{M: 2, ByzantineRatio: 0.25, MaxByzantine: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 16 {
		t.Errorf("got %d txs, want 16", len(txs))
	}
	for _, tx := range txs {
		if v := tx.Args[2].Float(); v < 15 || v > 30 {
			t.Errorf("out-of-range amount %g", v)
		}
	}
	if st.VOSize == 0 || st.Identical < 2 {
		t.Errorf("stats = %+v", st)
	}
	// m=2 > max=1 Byzantine ⇒ θ = 0.
	if st.Theta != 0 {
		t.Errorf("theta = %g", st.Theta)
	}
}

func TestAuthTrackingQuery(t *testing.T) {
	_, qn, tc := cluster(t, 4, 5, 8)
	req := &node.AuthRequest{Table: "", Col: "tname",
		Lo: types.Str("donate"), Hi: types.Str("donate")}
	txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 40 {
		t.Errorf("tracking got %d txs, want 40", len(txs))
	}
}

func TestAuthQueryWithWindow(t *testing.T) {
	_, qn, tc := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(1000), WinStart: 2000, WinEnd: 3000}
	txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 20 { // blocks 1 and 2
		t.Errorf("windowed got %d txs, want 20", len(txs))
	}
	for _, tx := range txs {
		if tx.Ts < 2000 || tx.Ts > 3000 {
			t.Errorf("tx ts %d outside window", tx.Ts)
		}
	}
}

// byzantineNode wraps a QueryNode and forges digests.
type byzantineNode struct{ node.QueryNode }

func (b byzantineNode) AuthDigest(r *node.AuthRequest) ([32]byte, error) {
	return [32]byte{0xE, 0xF}, nil
}

func TestAuthQueryDetectsByzantineAuxiliaries(t *testing.T) {
	_, qn, tc := cluster(t, 4, 4, 6)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(5)}
	// All auxiliaries forge: quorum of honest digests unreachable.
	aux := []node.QueryNode{byzantineNode{qn[1]}, byzantineNode{qn[2]}, byzantineNode{qn[3]}}
	if _, _, err := tc.AuthQuery(qn[0], aux, req, thinclient.Options{M: 2}); err == nil {
		t.Error("all-Byzantine auxiliaries accepted")
	}
	// One forger among three: quorum still reached.
	aux = []node.QueryNode{byzantineNode{qn[1]}, qn[2], qn[3]}
	if _, _, err := tc.AuthQuery(qn[0], aux, req, thinclient.Options{M: 2}); err != nil {
		t.Errorf("one forger broke quorum: %v", err)
	}
}

func TestAuthQueryDetectsWithholdingFullNode(t *testing.T) {
	_, qn, _ := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(1000)} // touches every block
	// Phase one from an honest node, then manually drop a block VO and
	// replay verification: the digest can no longer match auxiliaries.
	ans, err := qn[0].AuthQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Blocks) < 2 {
		t.Fatal("answer too small to truncate")
	}
	ans.Blocks = ans.Blocks[:len(ans.Blocks)-1]
	// Emulate the client pipeline on the truncated answer.
	digest, _, err := auth.VerifyAnswer(ans, req.Lo, req.Hi)
	if err != nil {
		t.Fatal(err)
	}
	req2 := *req
	req2.Height = ans.Height
	honest, err := qn[1].AuthDigest(&req2)
	if err != nil {
		t.Fatal(err)
	}
	if digest == honest {
		t.Error("withheld block escaped the digest comparison")
	}
}

func TestSyncHeadersRejectsForks(t *testing.T) {
	nodes, qn, tc := cluster(t, 2, 3, 4)
	_ = nodes
	if tc.Height() == 0 {
		t.Fatal("no headers synced")
	}
	// A second sync from an identical node is a no-op.
	if err := tc.SyncHeaders(qn[1]); err != nil {
		t.Errorf("re-sync from identical chain: %v", err)
	}
	// A diverged node (different chain) is rejected.
	e, err := core.Open(core.Config{Dir: t.TempDir(), Signer: "evil", BlockMaxTxs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Execute(`CREATE other (a int)`)
	e.FlushAt(1)
	for i := 0; i < 10; i++ {
		e.Execute(fmt.Sprintf(`INSERT INTO other (%d)`, i))
	}
	e.FlushAt(2)
	evil := node.New(e)
	defer evil.Close()
	if err := tc.SyncHeaders(&node.Local{Node: evil, Name: "evil"}); err == nil {
		t.Error("forked header chain accepted")
	}
}

// strippedHeaderNode relays a real node but serves the header at height
// strip without its packager signature; linkage stays intact, since the
// block hash does not cover the signature.
type strippedHeaderNode struct {
	node.QueryNode
	strip uint64
}

func (s strippedHeaderNode) Headers(from uint64) ([]types.BlockHeader, error) {
	hs, err := s.QueryNode.Headers(from)
	for i := range hs {
		if hs[i].Height == s.strip {
			hs[i].Signature = nil
		}
	}
	return hs, err
}

func TestSyncHeadersRejectsUnsignedHeader(t *testing.T) {
	_, qn, _ := cluster(t, 1, 3, 4)
	tc := thinclient.New(1)
	if err := tc.SyncHeaders(strippedHeaderNode{QueryNode: qn[0], strip: 2}); err == nil {
		t.Fatal("header without a packager signature accepted")
	}
	if tc.Height() != 2 {
		t.Errorf("synced %d headers, want the 2 before the unsigned one", tc.Height())
	}
}

func TestVerifyMembership(t *testing.T) {
	nodes, _, tc := cluster(t, 1, 3, 5)
	e := nodes[0].Engine
	blk, err := e.CurrentView().Block(1)
	if err != nil {
		t.Fatal(err)
	}
	leaves := types.TxLeaves(blk.Txs)
	proof, err := merkle.Prove(leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.VerifyMembership(blk.Txs[2], 1, proof) {
		t.Error("valid membership rejected")
	}
	// Wrong block or tampered tx fails.
	if tc.VerifyMembership(blk.Txs[2], 2, proof) {
		t.Error("wrong block accepted")
	}
	forged := *blk.Txs[2]
	forged.Args = append([]types.Value(nil), forged.Args...)
	forged.Args[2] = types.Dec(9999)
	if tc.VerifyMembership(&forged, 1, proof) {
		t.Error("forged tx accepted")
	}
	if tc.VerifyMembership(blk.Txs[2], 99, proof) {
		t.Error("unknown height accepted")
	}
}

func TestBasicQueryBaseline(t *testing.T) {
	_, qn, tc := cluster(t, 2, 5, 8)
	match := func(tx *types.Transaction) bool {
		return tx.Tname == "donate" && tx.Args[2].Float() < 10
	}
	txs, st, err := tc.BasicQuery(qn[0], match)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 10 {
		t.Errorf("basic query rows = %d", len(txs))
	}
	// The baseline ships every block; its VO size dwarfs ALI's.
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(9)}
	_, aliStats, err := tc.AuthQuery(qn[0], qn[1:], req, thinclient.Options{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aliStats.VOSize >= st.VOSize {
		t.Errorf("ALI VO (%d) not smaller than basic (%d)", aliStats.VOSize, st.VOSize)
	}
}

func TestAuthTrack(t *testing.T) {
	nodes, qn, tc := cluster(t, 4, 5, 8)
	for _, n := range nodes {
		if err := n.Engine.CreateAuthIndex("", "senid"); err != nil {
			t.Fatal(err)
		}
	}
	// One dimension: all of org1's transactions.
	txs, st, err := tc.AuthTrack(qn[0], qn[1:], "org1", "", 0, 0, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for seq := 0; seq < 40; seq++ {
		if seq%3 == 1 {
			want++
		}
	}
	if len(txs) != want {
		t.Errorf("one-dim track = %d, want %d", len(txs), want)
	}
	// Two dimensions: org1's donate transactions (all are donate here, so
	// filtering by a wrong operation empties the set).
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "donate", 0, 0, thinclient.Options{M: 2})
	if err != nil || len(txs) != want {
		t.Errorf("two-dim track = %d, %v", len(txs), err)
	}
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "transfer", 0, 0, thinclient.Options{M: 2})
	if err != nil || len(txs) != 0 {
		t.Errorf("mismatched operation = %d, %v", len(txs), err)
	}
	// With a window restricting to the first two data blocks.
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "", 1000, 3000, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if tx.Ts < 1000 || tx.Ts > 3000 {
			t.Errorf("windowed track leaked ts %d", tx.Ts)
		}
	}
	_ = st
}
