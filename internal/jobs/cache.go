package jobs

import "repro/internal/lru"

// CacheStats is a point-in-time snapshot of one engine cache's
// counters. Each job kind's outcome cache and the explore navigation
// sessions are lru.Caches keyed by string.
type CacheStats = lru.Stats
