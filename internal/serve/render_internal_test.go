package serve

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
