package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// TestFederationCountsPeerFetches: one merged scrape over two peers
// counts two scrapes, one per peer fetched, and the peer that fails
// counts one failure, so failures/scrapes is the per-peer failure rate.
func TestFederationCountsPeerFetches(t *testing.T) {
	old := obs.SetRegistry(obs.NewRegistry())
	t.Cleanup(func() { obs.SetRegistry(old) })

	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer ok.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer broken.Close()

	peers := []string{strings.TrimPrefix(ok.URL, "http://"), strings.TrimPrefix(broken.URL, "http://")}
	n, err := New(Config{Self: "127.0.0.1:1", Peers: peers}, serve.New(serve.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	nodes := n.fed.scrape(context.Background())
	if len(nodes) != 3 {
		t.Fatalf("merged view has %d nodes, want self and two peers", len(nodes))
	}
	if got := n.fed.scrapes.Value(); got != 2 {
		t.Errorf("one scrape of two peers counted %d scrapes, want 2", got)
	}
	if got := n.fed.failures.Value(); got != 1 {
		t.Errorf("one failing peer counted %d failures, want 1", got)
	}
}
