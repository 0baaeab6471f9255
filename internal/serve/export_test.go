package serve

import "optiwise"

// CachedResult probes the memory tier by job key, for tests that wait
// on a completion no job of theirs observes (a replayed submission).
func (s *Server) CachedResult(key string) (*optiwise.Result, bool) {
	return s.cache.get(key)
}
