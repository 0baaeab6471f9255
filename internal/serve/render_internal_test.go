package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"optiwise"
	"optiwise/internal/core"
)

// doneJob registers a finished job holding res, as if a worker had
// produced it.
func doneJob(s *Server, res *optiwise.Result) *Job {
	j := newJob("digest", res.Module, "", "")
	j.finish(res, "")
	s.mu.Lock()
	s.registerLocked(j)
	s.mu.Unlock()
	return j
}

// TestJSONRendersRefuseNonFinite: a result holding a NaN answers the
// drill-down and the JSON report with 500 and an error, as JSON cannot
// encode it, not with 200 and an empty body; a finite one answers 200
// with its length in Content-Length.
func TestJSONRendersRefuseNonFinite(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fn := core.FuncRecord{Name: "main", SelfCycles: 10, TotalCycles: 10, CPI: 1}
	finite := &optiwise.Result{Module: "finite", IPC: 1, Funcs: []core.FuncRecord{fn}}
	fn.CPI = math.NaN()
	nan := &optiwise.Result{Module: "nan", IPC: 1, Funcs: []core.FuncRecord{fn}}
	for _, path := range []string{"/drilldown", "/report?kind=json"} {
		for _, c := range []struct {
			res  *optiwise.Result
			want int
		}{{finite, http.StatusOK}, {nan, http.StatusInternalServerError}} {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + doneJob(s, c.res).ID + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.want {
				t.Errorf("%s of %s: status %d, want %d (body %q)", path, c.res.Module, resp.StatusCode, c.want, body)
				continue
			}
			if c.want == http.StatusOK && resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", path, resp.Header.Get("Content-Length"), len(body))
			}
			if c.want != http.StatusOK && len(body) == 0 {
				t.Errorf("%s of %s: an empty error body", path, c.res.Module)
			}
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing of the body,
// so a measured GET allocates only what the handler does.
type discardResponse struct {
	h    http.Header
	size int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { d.size += len(b); return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestJSONGetsAllocateTheBodyOnce: the JSON report and the drill-down
// hand the renderer's one exact-size buffer to the response, so a GET
// allocates about one body, not a rendered body plus a copy of it.
func TestJSONGetsAllocateTheBodyOnce(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	res := &optiwise.Result{Module: "wide", IPC: 1}
	for i := 0; i < 4000; i++ {
		res.Funcs = append(res.Funcs, core.FuncRecord{
			Name: fmt.Sprintf("function_%04d", i), Lo: uint64(64 * i),
			SelfCycles: uint64(1000 + i), TotalCycles: uint64(2000 + i), SelfInsts: 500, TotalInsts: 900, CPI: 2.25, IPC: 0.444,
		})
	}
	id := doneJob(s, res).ID
	for _, path := range []string{"/v1/jobs/" + id + "/report?kind=json", "/v1/jobs/" + id + "/drilldown"} {
		get := func() int {
			w := &discardResponse{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			return w.size
		}
		size := get()
		var before, after runtime.MemStats
		const runs = 10
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		perGet := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if max := 1.5 * float64(size); perGet > max {
			t.Errorf("GET %s of a %d-byte body allocated %.0f bytes, want under %.0f (one body)", path, size, perGet, max)
		}
	}
}
