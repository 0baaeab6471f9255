package serve_test

import (
	"encoding/json"
	"strings"
	"testing"

	"optiwise/internal/serve"
)

// TestWindowJobKeysPinned pins the content address of a plain and of a
// windowed submission to digests recorded before the telemetry and
// stream windows became one option: the window is hashed in the old
// telemetry slot, so results already cached under those keys stay
// reachable. The old telemetry_window wire field is gone, and strict
// decoding rejects it.
func TestWindowJobKeysPinned(t *testing.T) {
	src := `
.func main
main:
    li t0, 100
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	srv := serve.New(serve.Config{})
	body := func(options string) []byte {
		s, _ := json.Marshal(src)
		return []byte(`{"module":"keypin","source":` + string(s) + `,"options":` + options + `}`)
	}
	for _, c := range []struct{ options, key string }{
		{`{"sample_period":300}`, "663ef9936c4a921a4c34cf9046f2c7f336fd208d50750330ebf70d0addab301d"},
		// The key a telemetry_window of 512 had.
		{`{"sample_period":300,"stream_window":512}`, "a8ac9187902ca85cc534a2798b3738875b6a5ec7dd66db1d45918f2a0a6994fe"},
	} {
		_, key, err := srv.DecodeSubmission(body(c.options))
		if err != nil {
			t.Fatal(err)
		}
		if key != c.key {
			t.Errorf("%s: key %s, want %s", c.options, key, c.key)
		}
	}
	_, _, err := srv.DecodeSubmission(body(`{"telemetry_window":512}`))
	if err == nil || !strings.Contains(err.Error(), "telemetry_window") {
		t.Errorf("telemetry_window accepted: %v", err)
	}
}
