package httpstore

import (
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
)

const (
	idA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	idB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
)

type record struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// newPair serves a fresh filesystem store over httptest and returns
// both ends, so every test exercises the full client → HTTP → server →
// disk path.
func newPair(t *testing.T) (*cache.Store, *Client) {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	client, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return store, client
}

func TestNewClientRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host", "http://", "/just/a/path", "host:8080"} {
		if _, err := NewClient(bad); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
	if _, err := NewClient("http://localhost:8771/"); err != nil {
		t.Fatalf("trailing slash rejected: %v", err)
	}
}

func TestGetPutListRoundTrip(t *testing.T) {
	store, client := newPair(t)
	var missing record
	if ok, err := client.Get(idA, &missing); err != nil || ok {
		t.Fatalf("get of absent record = (%v, %v), want miss", ok, err)
	}
	want := record{Key: "cell", Value: 0.75}
	if err := client.Put(idA, &want); err != nil {
		t.Fatal(err)
	}
	var got record
	if ok, err := client.Get(idA, &got); err != nil || !ok {
		t.Fatalf("get after put = (%v, %v), want hit", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// The record landed in the same namespace the filesystem store reads.
	var direct record
	if ok, err := store.Get(idA, &direct); err != nil || !ok || !reflect.DeepEqual(direct, want) {
		t.Fatalf("fs read-through = (%+v, %v, %v), want the record", direct, ok, err)
	}
	if err := client.Put(idB, &record{Key: "other"}); err != nil {
		t.Fatal(err)
	}
	ids, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != idA || ids[1] != idB {
		t.Fatalf("List = %v, want sorted [%s %s]", ids, idA, idB)
	}
}

func TestCorruptRecordDegradesToMissOverHTTP(t *testing.T) {
	store, client := newPair(t)
	if err := os.WriteFile(store.Path(idA), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v record
	if ok, err := client.Get(idA, &v); err != nil || ok {
		t.Fatalf("corrupt record over HTTP = (%v, %v), want miss", ok, err)
	}
}

func TestMalformedIDIsAnErrorNotAMiss(t *testing.T) {
	_, client := newPair(t)
	var v record
	if _, err := client.Get("..%2Fescape", &v); err == nil {
		t.Fatal("malformed id accepted by Get")
	}
	if err := client.Put("nothex", &v); err == nil {
		t.Fatal("malformed id accepted by Put")
	}
	if _, err := client.Claim("nothex", "w1", time.Minute); err == nil {
		t.Fatal("malformed id accepted by Claim")
	}
}

func TestClaimSemanticsOverHTTP(t *testing.T) {
	_, client := newPair(t)
	if ok, err := client.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("first claim = (%v, %v), want granted", ok, err)
	}
	if ok, err := client.Claim(idA, "w1", time.Minute); err != nil || !ok {
		t.Fatalf("renewal = (%v, %v), want granted", ok, err)
	}
	if ok, err := client.Claim(idA, "w2", time.Minute); err != nil || ok {
		t.Fatalf("foreign claim = (%v, %v), want refused", ok, err)
	}
	// Completion supersedes the lease; the cell is then un-claimable.
	if err := client.Put(idA, &record{Key: "done"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := client.Claim(idA, "w2", time.Minute); err != nil || ok {
		t.Fatalf("claim of completed record = (%v, %v), want refused", ok, err)
	}
	// Expired leases are re-claimable through the wire too.
	if ok, _ := client.Claim(idB, "dead", 2*time.Millisecond); !ok {
		t.Fatal("short claim refused")
	}
	time.Sleep(10 * time.Millisecond)
	if ok, err := client.Claim(idB, "w3", time.Minute); err != nil || !ok {
		t.Fatalf("claim after expiry = (%v, %v), want granted", ok, err)
	}
}

func TestClaimOverCorruptOrForeignRecordOverHTTP(t *testing.T) {
	// The server's store decides: a damaged record on disk is claimable
	// through the wire, so remote workers are never blocked by it.
	store, client := newPair(t)
	if err := os.WriteFile(store.Path(idA), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(idB), []byte(`{"id": "`+idA+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{idA, idB} {
		if ok, err := client.Claim(id, "w1", time.Minute); err != nil || !ok {
			t.Fatalf("claim over damaged record %s = (%v, %v), want granted", id, ok, err)
		}
	}
}

func TestClientAgainstDeadServerErrors(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store))
	client, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	var v record
	if _, err := client.Get(idA, &v); err == nil {
		t.Fatal("Get against a dead server returned no error")
	}
	if _, err := client.List(); err == nil {
		t.Fatal("List against a dead server returned no error")
	}
}
