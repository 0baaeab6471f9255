package serve_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optiwise/internal/serve"
)

// maxPresize is the most ReadBody reserves on a claimed length alone.
const maxPresize = 1 << 20

// TestReadBodyPresizesFromContentLength: a body of known length is read
// into one buffer of that length (plus the byte the EOF read needs), a
// claimed length reserves at most maxPresize, a length past the limit
// and an unknown one read as io.ReadAll does, and a lying length still
// reads the whole body.
func TestReadBodyPresizesFromContentLength(t *testing.T) {
	body := strings.Repeat("x", 1000)
	for _, c := range []struct {
		name          string
		length, limit int64
		maxCap        int
	}{
		{"exact", 1000, 4096, 1001},
		{"at the limit", 1000, 1000, 1001},
		{"claims past the limit", 1 << 40, 2048, 2048},
		{"claims the largest length", math.MaxInt64, 2048, 2048},
		{"claims a large length within the limit", 32 << 20, 32 << 20, maxPresize},
		{"claims the largest length within the limit", math.MaxInt64, math.MaxInt64, maxPresize},
		{"claims too little", 10, 4096, 1 << 20},
		{"unknown", -1, 4096, 1 << 20},
	} {
		got, err := serve.ReadBody(io.LimitReader(strings.NewReader(body), c.limit), c.length, c.limit)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != body {
			t.Errorf("%s: read %d bytes, want the %d-byte body", c.name, len(got), len(body))
		}
		if cap(got) > c.maxCap {
			t.Errorf("%s: capacity %d, want at most %d", c.name, cap(got), c.maxCap)
		}
	}
	// A known length costs the one buffer.
	sr, lr := strings.NewReader(body), new(io.LimitedReader)
	allocs := testing.AllocsPerRun(10, func() {
		sr.Reset(body)
		*lr = io.LimitedReader{R: sr, N: 4096}
		serve.ReadBody(lr, int64(len(body)), 4096) //nolint:errcheck // read above
	})
	if allocs != 1 {
		t.Errorf("a %d-byte body of known length: %.0f allocations, want 1", len(body), allocs)
	}
	// Truncation at the limit is the LimitReader's, as before.
	got, err := serve.ReadBody(io.LimitReader(strings.NewReader(body), 100), 1000, 100)
	if err != nil || len(got) != 100 {
		t.Errorf("truncated read: %d bytes, %v; want 100, nil", len(got), err)
	}
	// A body longer than the presize grows to its full length.
	long := strings.Repeat("y", 3*maxPresize)
	got, err = serve.ReadBody(strings.NewReader(long), int64(len(long)), 4*maxPresize)
	if err != nil || string(got) != long {
		t.Errorf("%d-byte body: read %d bytes, %v", len(long), len(got), err)
	}
}

// firstRead records the buffer ReadBody offers before any byte has
// arrived, then ends the body: a client that claims a length and stalls.
type firstRead struct{ size int }

func (f *firstRead) Read(p []byte) (int, error) {
	if f.size < 0 {
		f.size = len(p)
	}
	return 0, io.EOF
}

// TestReadBodyClaimReservesAtMostThePresize: a header alone cannot pin
// the body limit. Claiming the default 32 MiB submission limit, or any
// length up to it, reserves at most maxPresize before the first byte.
func TestReadBodyClaimReservesAtMostThePresize(t *testing.T) {
	const limit = 32 << 20
	for _, length := range []int64{10, maxPresize - 1, maxPresize, limit, limit + 1} {
		r := &firstRead{size: -1}
		got, err := serve.ReadBody(r, length, limit)
		if err != nil || len(got) != 0 {
			t.Fatalf("claimed %d, sent nothing: %d bytes, %v", length, len(got), err)
		}
		if r.size > maxPresize || cap(got) > maxPresize {
			t.Errorf("claimed %d, sent nothing: first read offered %d bytes, buffer capacity %d; want at most %d",
				length, r.size, cap(got), maxPresize)
		}
	}
}

// TestSubmitBodyOverLimitIs413: a submission past MaxBodyBytes answers
// 413, whether its Content-Length says so up front or not.
func TestSubmitBodyOverLimitIs413(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, MaxBodyBytes: 256})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"source":"` + strings.Repeat("x", 512) + `"}`
	for _, r := range []io.Reader{strings.NewReader(body), io.MultiReader(strings.NewReader(body))} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("over-limit submission (known length %v): status %d, want 413",
				resp.ContentLength >= 0, resp.StatusCode)
		}
	}
	var tooLarge *http.MaxBytesError
	_, err := serve.ReadBody(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), 256), int64(len(body)), 256)
	if !errors.As(err, &tooLarge) {
		t.Errorf("ReadBody past a MaxBytesReader: %v, want *http.MaxBytesError", err)
	}
}

// TestReportSetsContentLength: a report GET states its length, so a
// cluster proxy relaying it reads the body into one buffer.
func TestReportSetsContentLength(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(11), "wait": true}))
	for _, kind := range []string{"full", "csv", "json"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s report: status %d, %v", kind, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(b)) || resp.ContentLength <= 0 {
			t.Errorf("%s report: Content-Length %d for a %d-byte body", kind, resp.ContentLength, len(b))
		}
	}
}
