package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	idA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	idB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClaimGrantRenewConflict(t *testing.T) {
	s := openTestStore(t)
	if ok, err := s.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("first claim = (%v, %v), want granted", ok, err)
	}
	// The same owner renews; a different owner is refused.
	if ok, err := s.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("renewal = (%v, %v), want granted", ok, err)
	}
	if ok, err := s.Claim(idA, "w2", time.Minute); err != nil || ok {
		t.Fatalf("foreign claim = (%v, %v), want refused", ok, err)
	}
	// An unrelated identity is independent.
	if ok, err := s.Claim(idB, "w2", time.Minute); err != nil || !ok {
		t.Fatalf("claim of other id = (%v, %v), want granted", ok, err)
	}
}

func TestClaimExpiredLeaseIsReclaimable(t *testing.T) {
	s := openTestStore(t)
	if ok, _ := s.Claim(idA, "dead", time.Millisecond); !ok {
		t.Fatal("short claim refused")
	}
	time.Sleep(5 * time.Millisecond)
	if ok, err := s.Claim(idA, "w2", time.Minute); err != nil || !ok {
		t.Fatalf("claim after expiry = (%v, %v), want granted", ok, err)
	}
}

func TestClaimCorruptLeaseDegradesToMiss(t *testing.T) {
	s := openTestStore(t)
	if err := os.WriteFile(s.leasePath(idA), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("claim over corrupt lease = (%v, %v), want granted", ok, err)
	}
}

func TestClaimRefusedOnceRecordExists(t *testing.T) {
	s := openTestStore(t)
	if err := s.Put(idA, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Claim(idA, "w1", time.Minute); err != nil || ok {
		t.Fatalf("claim of completed record = (%v, %v), want refused", ok, err)
	}
}

func TestClaimGrantedOverCorruptOrForeignRecord(t *testing.T) {
	// A record no reader can use must not block its identity: garbage
	// bytes and a record naming another identity are both claimable,
	// while a sound record naming its own identity is not.
	s := openTestStore(t)
	if err := os.WriteFile(s.Path(idA), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("claim over corrupt record = (%v, %v), want granted", ok, err)
	}
	if err := s.Put(idB, map[string]string{"id": idA}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Claim(idB, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("claim over foreign record = (%v, %v), want granted", ok, err)
	}
	if err := s.Put(idA, map[string]string{"id": idA}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Claim(idA, "w2", time.Minute); err != nil || ok {
		t.Fatalf("claim of sound record = (%v, %v), want refused", ok, err)
	}
}

func TestPutReleasesLease(t *testing.T) {
	s := openTestStore(t)
	if ok, _ := s.Claim(idA, "w1", time.Hour); !ok {
		t.Fatal("claim refused")
	}
	if err := s.Put(idA, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.leasePath(idA)); !os.IsNotExist(err) {
		t.Fatalf("lease file survives Put: %v", err)
	}
}

func TestClaimRejectsMalformedInputs(t *testing.T) {
	s := openTestStore(t)
	cases := []struct {
		id, owner string
		ttl       time.Duration
	}{
		{"../escape", "w1", time.Minute},
		{idA, "", time.Minute},
		{idA, "has space", time.Minute},
		{idA, "w1", 0},
		{idA, "w1", -time.Second},
	}
	for _, c := range cases {
		if _, err := s.Claim(c.id, c.owner, c.ttl); err == nil {
			t.Errorf("Claim(%q, %q, %v) accepted", c.id, c.owner, c.ttl)
		}
	}
}

func TestListSortedAndSkipsLeasesAndForeignFiles(t *testing.T) {
	s := openTestStore(t)
	if err := s.Put(idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idA, 1); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Claim("cccccccccccccccccccccccccccccccc", "w1", time.Minute); !ok {
		t.Fatal("claim refused")
	}
	if err := os.WriteFile(s.Dir()+"/README.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err) // non-hex name: not a record
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != idA || ids[1] != idB {
		t.Fatalf("List = %v, want [%s %s]", ids, idA, idB)
	}
}

// TestConcurrentPutsLastWriteWinsByteIdentical is the benign-duplicate
// contract: content-addressed records carry identical bytes for one
// identity, so N workers racing to complete the same cell must leave
// exactly the bytes any single writer would have left.
func TestConcurrentPutsLastWriteWinsByteIdentical(t *testing.T) {
	s := openTestStore(t)
	payload := map[string]interface{}{"id": idA, "value": 42.5, "tags": []string{"a", "b"}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(idA, payload); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(s.Path(idA))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("record after concurrent Puts:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentClaimsLeaveValidLease: Claim serializes within one
// process, so of N goroutines racing on one identity exactly one is
// granted, the lease file is valid JSON naming one of the contenders,
// and a subsequent foreign claim is refused.
func TestConcurrentClaimsLeaveValidLease(t *testing.T) {
	s := openTestStore(t)
	owners := make(map[string]bool)
	var granted int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		owner := fmt.Sprintf("w%d", i)
		owners[owner] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := s.Claim(idA, owner, time.Minute)
			if err != nil {
				t.Error(err)
			}
			if ok {
				atomic.AddInt32(&granted, 1)
			}
		}()
	}
	wg.Wait()
	if granted != 1 {
		t.Fatalf("%d of 8 racing in-process claims granted, want exactly 1", granted)
	}
	data, err := os.ReadFile(s.leasePath(idA))
	if err != nil {
		t.Fatal(err)
	}
	var l lease
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("lease file corrupt after racing claims: %v", err)
	}
	if !owners[l.Owner] {
		t.Fatalf("lease owner %q is not one of the contenders", l.Owner)
	}
	if ok, err := s.Claim(idA, "latecomer", time.Minute); err != nil || ok {
		t.Fatalf("late foreign claim = (%v, %v), want refused", ok, err)
	}
}
