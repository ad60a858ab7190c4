package shard

import "repro/internal/core/cycle"

// CoreOf exposes shard idx's cycle core to the external tests. Only
// between cycles, when the workers are idle.
func (s *Supervisor) CoreOf(idx int) *cycle.Core { return s.workers[idx].core }

// CheckpointOf exposes the checkpoint shard idx's worker last took.
func (s *Supervisor) CheckpointOf(idx int) *cycle.Checkpoint { return s.workers[idx].checkpointRef() }
