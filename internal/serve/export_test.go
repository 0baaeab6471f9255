package serve

import "optiwise"

// CachedResult probes the memory tier by job key, for tests that wait
// on a completion no job of theirs observes (a replayed submission).
func (s *Server) CachedResult(key string) (*optiwise.Result, bool) {
	return s.cache.get(key)
}

// CanonicalKey returns the job key SubmitWith assigns prog under opts.
func (s *Server) CanonicalKey(prog *optiwise.Program, opts optiwise.Options) (string, error) {
	_, key, err := s.canonicalKey(prog, opts)
	return key, err
}

// DecodeSubmission decodes a POST /v1/jobs body as the submit handler
// does, returning the program (from the memo) and job key it would
// submit.
func (s *Server) DecodeSubmission(body []byte) (*optiwise.Program, string, error) {
	d, err := s.decodeSubmission(body)
	if err != nil {
		return nil, "", err
	}
	return d.prog, d.key, nil
}

// WireMagic is the payload magic; the schema fingerprint follows it.
const WireMagic = wireMagic
