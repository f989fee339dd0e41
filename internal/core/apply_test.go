package core

import (
	"crypto/ed25519"
	"strings"
	"testing"

	"sebdb/internal/types"
)

// TestApplyBlockRejects feeds ApplyBlock one bad block per clause of the
// foreign-block rule: packager signature, height, PrevHash (including a
// non-zero one at genesis) and Merkle root. Each bad block breaks only
// its own clause — altered headers are re-signed — and must fail without
// moving the follower's height or view epoch; the genuine block then
// still applies.
func TestApplyBlockRejects(t *testing.T) {
	leader := testEngine(t, Config{BlockMaxTxs: 4})
	seedDonation(t, leader, 8, 4)
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 1
	other := ed25519.NewKeyFromSeed(seed)
	block := func(h uint64) types.Block {
		b, err := leader.store.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		return *b
	}
	cases := []struct {
		name string
		at   uint64 // follower height when the bad block arrives
		bad  func() types.Block
		want string
	}{
		{"stripped-signature", 1, func() types.Block {
			b := block(1)
			b.Header.Signature = nil
			return b
		}, "invalid packager signature"},
		{"wrong-height", 1, func() types.Block {
			b := block(1)
			b.Header.Height = 2
			b.Header.Sign(other)
			return b
		}, "height 2, want 1"},
		{"broken-prev-hash", 1, func() types.Block {
			b := block(1)
			b.Header.PrevHash[0] ^= 1
			b.Header.Sign(other)
			return b
		}, "does not link"},
		{"non-zero-genesis-prev-hash", 0, func() types.Block {
			b := block(0)
			b.Header.PrevHash[0] = 1
			b.Header.Sign(other)
			return b
		}, "does not link"},
		{"merkle-mismatch", 1, func() types.Block {
			b := block(1)
			forged := *b.Txs[0]
			forged.Args = append([]types.Value(nil), forged.Args...)
			forged.Args[2] = types.Dec(1e12)
			b.Txs = append([]*types.Transaction{&forged}, b.Txs[1:]...)
			return b
		}, "merkle root mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			follower := testEngine(t, Config{BlockMaxTxs: 4})
			for h := uint64(0); h < tc.at; h++ {
				b := block(h)
				if err := follower.ApplyBlock(&b); err != nil {
					t.Fatalf("apply genuine block %d: %v", h, err)
				}
			}
			epoch := follower.CurrentView().Epoch()
			bad := tc.bad()
			err := follower.ApplyBlock(&bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ApplyBlock err = %v, want one containing %q", err, tc.want)
			}
			if h := follower.Height(); h != tc.at {
				t.Errorf("height %d after rejected block, want %d", h, tc.at)
			}
			if e := follower.CurrentView().Epoch(); e != epoch {
				t.Errorf("view epoch %d after rejected block, want %d", e, epoch)
			}
			good := block(tc.at)
			if err := follower.ApplyBlock(&good); err != nil {
				t.Fatalf("genuine block %d after the rejection: %v", tc.at, err)
			}
		})
	}
}
