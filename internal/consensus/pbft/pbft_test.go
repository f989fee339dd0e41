package pbft

import (
	"crypto/ed25519"
	"sync"
	"testing"
	"time"

	"sebdb/internal/consensus"
	"sebdb/internal/types"
)

// memCommitter records committed batches.
type memCommitter struct {
	mu     sync.Mutex
	blocks [][]*types.Transaction
	height uint64
}

func (m *memCommitter) CommitBlock(txs []*types.Transaction, ts int64) (*types.Block, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks = append(m.blocks, txs)
	b := types.NewBlock(nil, nil, ts, "mem")
	b.Header.Height = m.height
	m.height++
	return b, nil
}

func (m *memCommitter) total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.blocks {
		n += len(b)
	}
	return n
}

// waitTotals polls until every replica in mems has committed want
// transactions or timeout passes. Submit returns after f+1 matching
// replies, so the other replicas may still be executing.
func waitTotals(mems []*memCommitter, want int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := true
		for _, m := range mems {
			if m.total() != want {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func committers(n int) ([]consensus.Committer, []*memCommitter) {
	mems := make([]*memCommitter, n)
	out := make([]consensus.Committer, n)
	for i := range mems {
		mems[i] = &memCommitter{}
		out[i] = mems[i]
	}
	return out, mems
}

func tx(i int) *types.Transaction {
	return &types.Transaction{Ts: int64(i), SenID: "c", Tname: "t",
		Args: []types.Value{types.Int(int64(i))}}
}

func TestNormalCaseCommitsEverywhere(t *testing.T) {
	cs, mems := committers(4)
	cl, err := New(Options{F: 1, BatchSize: 8, BatchTimeout: 10 * time.Millisecond}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cl.Submit(tx(i)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	waitTotals(mems, 40, 2*time.Second)
	for i, m := range mems {
		if m.total() != 40 {
			t.Errorf("replica %d committed %d of 40", i, m.total())
		}
	}
	// All replicas agree on batch boundaries and order.
	for i := 1; i < 4; i++ {
		mems[0].mu.Lock()
		mems[i].mu.Lock()
		if len(mems[0].blocks) != len(mems[i].blocks) {
			t.Errorf("replica %d has %d blocks, replica 0 has %d",
				i, len(mems[i].blocks), len(mems[0].blocks))
		} else {
			for b := range mems[0].blocks {
				if len(mems[0].blocks[b]) != len(mems[i].blocks[b]) {
					t.Errorf("batch %d sizes differ on replica %d", b, i)
				}
			}
		}
		mems[i].mu.Unlock()
		mems[0].mu.Unlock()
	}
}

func TestToleratesCrashedBackup(t *testing.T) {
	cs, mems := committers(4)
	cl, _ := New(Options{F: 1, BatchSize: 4, BatchTimeout: 10 * time.Millisecond}, cs)
	cl.Crash(3) // a backup, not the primary (view 0 → primary 0)
	cl.Start()
	defer cl.Stop()
	for i := 0; i < 8; i++ {
		if err := cl.Submit(tx(i)); err != nil {
			t.Fatalf("submit with crashed backup: %v", err)
		}
	}
	waitTotals(mems[:3], 8, 2*time.Second)
	if mems[0].total() != 8 {
		t.Errorf("replica 0 committed %d", mems[0].total())
	}
	if mems[3].total() != 0 {
		t.Errorf("crashed replica committed %d", mems[3].total())
	}
}

func TestViewChangeOnCrashedPrimary(t *testing.T) {
	cs, mems := committers(4)
	cl, _ := New(Options{
		F: 1, BatchSize: 4,
		BatchTimeout:      10 * time.Millisecond,
		ViewChangeTimeout: 100 * time.Millisecond,
	}, cs)
	cl.Crash(0) // the view-0 primary
	cl.Start()
	defer cl.Stop()

	done := make(chan error, 1)
	go func() { done <- cl.Submit(tx(1)) }()
	select {
	case err := <-done:
		// Replica 0 is crashed, so the client reply path (replica 0)
		// never fires; we instead verify commitment below.
		_ = err
	case <-time.After(3 * time.Second):
	}
	// The view must have moved past 0 and live replicas must commit.
	deadline := time.Now().Add(3 * time.Second)
	committed := false
	for time.Now().Before(deadline) {
		if mems[1].total() >= 1 && mems[2].total() >= 1 && mems[3].total() >= 1 {
			committed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !committed {
		t.Fatalf("live replicas did not commit after view change: %d/%d/%d",
			mems[1].total(), mems[2].total(), mems[3].total())
	}
	if v := cl.replicas[1].view.Load(); v == 0 {
		t.Error("view did not advance")
	}
}

func TestRequireSigs(t *testing.T) {
	cs, _ := committers(4)
	cl, _ := New(Options{F: 1, BatchTimeout: 5 * time.Millisecond, RequireSigs: true}, cs)
	cl.Start()
	defer cl.Stop()
	if err := cl.Submit(tx(1)); err != ErrRejected {
		t.Errorf("unsigned tx: err = %v, want ErrRejected", err)
	}
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	signed := tx(2)
	signed.Sign(key)
	if err := cl.Submit(signed); err != nil {
		t.Errorf("signed tx rejected: %v", err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	cs, _ := committers(4)
	cl, _ := New(Options{F: 1}, cs)
	cl.Start()
	cl.Stop()
	if err := cl.Submit(tx(1)); err != ErrStopped {
		t.Errorf("err = %v", err)
	}
	if err := cl.Stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

func TestNewValidatesSize(t *testing.T) {
	cs, _ := committers(3)
	if _, err := New(Options{F: 1}, cs); err == nil {
		t.Error("3 committers for f=1 accepted")
	}
}

// TestLivenessAfterViewChange submits new requests after the crashed
// primary was replaced: the batcher must address the new primary, not
// keep proposing to the dead one (regression for a bug where the
// cluster view was read from the crashed replica).
func TestLivenessAfterViewChange(t *testing.T) {
	cs, mems := committers(4)
	cl, _ := New(Options{
		F: 1, BatchSize: 4,
		BatchTimeout:      10 * time.Millisecond,
		ViewChangeTimeout: 100 * time.Millisecond,
	}, cs)
	cl.Crash(0)
	cl.Start()
	defer cl.Stop()

	// Trigger the view change with a first request.
	go cl.Submit(tx(1))
	deadline := time.Now().Add(3 * time.Second)
	for cl.curView.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if cl.curView.Load() == 0 {
		t.Fatal("view change never happened")
	}

	// New submissions must now commit on the live replicas.
	before := mems[1].total()
	go cl.Submit(tx(2))
	go cl.Submit(tx(3))
	deadline = time.Now().Add(3 * time.Second)
	for mems[1].total() < before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if mems[1].total() < before+2 {
		t.Fatalf("post-view-change submissions stalled: %d -> %d",
			before, mems[1].total())
	}
}
