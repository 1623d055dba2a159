package failover

import "ava/internal/backoff"

// BackoffConfig shapes the jittered exponential backoff every retry in the
// fault-tolerance layer draws from (internal/backoff, which code inside this
// module imports directly); the alias is the spelling the repository
// benchmark configures a guardian with.
type BackoffConfig = backoff.Config
