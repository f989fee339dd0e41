package network

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sebdb/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindBlock, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(&buf)
	if err != nil || kind != KindBlock || string(payload) != "payload" {
		t.Errorf("frame = %d %q %v", kind, payload, err)
	}
	// Empty payload.
	WriteFrame(&buf, KindHeight, nil)
	kind, payload, err = ReadFrame(&buf)
	if err != nil || kind != KindHeight || len(payload) != 0 {
		t.Errorf("empty frame = %d %q %v", kind, payload, err)
	}
	// Truncated stream.
	short := bytes.NewReader([]byte{1, 0, 0, 0, 10, 1, 2})
	if _, _, err := ReadFrame(short); err == nil {
		t.Error("truncated frame accepted")
	}
	// Oversized declared length.
	huge := bytes.NewReader([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(huge); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestServerClientOverTCP(t *testing.T) {
	srv := NewServer()
	srv.Handle(KindHeight, func(p []byte) ([]byte, error) {
		return []byte("42"), nil
	})
	srv.Handle(KindSQL, func(p []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Call(KindHeight, nil)
	if err != nil || string(resp) != "42" {
		t.Errorf("call = %q, %v", resp, err)
	}
	// Handler error becomes a client error.
	if _, err := cl.Call(KindSQL, []byte("x")); err == nil || err.Error() != "boom" {
		t.Errorf("error propagation: %v", err)
	}
	// Unregistered kind.
	if _, err := cl.Call(KindAuthQuery, nil); err == nil {
		t.Error("unregistered kind accepted")
	}
	// Concurrent calls are serialised safely.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := cl.Call(KindHeight, nil); err != nil || string(r) != "42" {
				t.Errorf("concurrent call failed: %v", err)
			}
		}()
	}
	wg.Wait()
}

// memChain is an in-memory Applier + Peer for gossip tests.
type memChain struct {
	mu     sync.Mutex
	id     string
	blocks []*types.Block
	bad    bool // simulate failure
}

func (m *memChain) ID() string { return m.id }

func (m *memChain) Height() (uint64, error) {
	if m.bad {
		return 0, errors.New("down")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.blocks)), nil
}

func (m *memChain) localHeight() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.blocks))
}

func (m *memChain) BlockAt(h uint64) (*types.Block, error) {
	if m.bad {
		return nil, errors.New("down")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h >= uint64(len(m.blocks)) {
		return nil, errors.New("no such block")
	}
	return m.blocks[h], nil
}

func (m *memChain) ApplyBlock(b *types.Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Header.Height != uint64(len(m.blocks)) {
		return fmt.Errorf("out of order: %d at height %d", b.Header.Height, len(m.blocks))
	}
	m.blocks = append(m.blocks, b)
	return nil
}

// applierView adapts memChain to the Applier interface's non-error
// Height.
type applierView struct{ *memChain }

func (a applierView) Height() uint64 { return a.localHeight() }

func chainOf(id string, n int) *memChain {
	m := &memChain{id: id}
	var prev *types.BlockHeader
	for i := 0; i < n; i++ {
		b := types.NewBlock(prev, nil, int64(i+1), id)
		prev = &b.Header
		m.blocks = append(m.blocks, b)
	}
	return m
}

func TestGossipCatchUp(t *testing.T) {
	source := chainOf("peer1", 10)
	local := chainOf("local", 3)
	// Rebuild local's 3 blocks to be a prefix of source's chain so
	// ApplyBlock linkage (by height here) works.
	local.blocks = append([]*types.Block(nil), source.blocks[:3]...)

	g := NewGossiper(applierView{local}, time.Millisecond, 1)
	g.AddPeer(source)
	g.Round()
	if local.localHeight() != 10 {
		t.Errorf("after round height = %d", local.localHeight())
	}
}

func TestGossipBackgroundLoop(t *testing.T) {
	source := chainOf("peer1", 5)
	local := &memChain{id: "local"}
	g := NewGossiper(applierView{local}, time.Millisecond, 1)
	g.AddPeer(source)
	g.Start()
	defer g.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for local.localHeight() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if local.localHeight() != 5 {
		t.Errorf("background gossip synced %d of 5", local.localHeight())
	}
	// New blocks keep flowing.
	source.mu.Lock()
	prev := &source.blocks[4].Header
	source.blocks = append(source.blocks, types.NewBlock(prev, nil, 99, "peer1"))
	source.mu.Unlock()
	deadline = time.Now().Add(2 * time.Second)
	for local.localHeight() < 6 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if local.localHeight() != 6 {
		t.Error("gossip missed the new block")
	}
}

func TestGossipFailureEviction(t *testing.T) {
	dead := &memChain{id: "dead", bad: true}
	local := &memChain{id: "local"}
	g := NewGossiper(applierView{local}, time.Millisecond, 1)
	g.AddPeer(dead)
	for i := 0; i < FailureThreshold; i++ {
		g.Round()
	}
	if ids := g.PeerIDs(); len(ids) != 0 {
		t.Errorf("dead peer not evicted: %v", ids)
	}
	// A healthy peer resets its failure count.
	healthy := chainOf("ok", 2)
	g.AddPeer(healthy)
	g.Round()
	g.Round()
	if ids := g.PeerIDs(); len(ids) != 1 {
		t.Errorf("healthy peer evicted: %v", ids)
	}
}

func TestSyncOnce(t *testing.T) {
	a := chainOf("a", 4)
	b := chainOf("b", 7)
	// Make a's chain a prefix of b's.
	a.blocks = append([]*types.Block(nil), b.blocks[:4]...)
	local := &memChain{id: "local"}
	g := NewGossiper(applierView{local}, time.Hour, 1)
	g.AddPeer(a)
	g.AddPeer(b)
	g.SyncOnce()
	if local.localHeight() != 7 {
		t.Errorf("SyncOnce height = %d", local.localHeight())
	}
}
