//! Simulation statistics: the simulator's event counters.
//!
//! [`SimStats`] counts what the engine does with each event — delivered, injected,
//! fired, or dropped by a fault. The paper's Figure 10/11 quantities (latency per
//! enqueue, inter-processor messages per queuing operation) are protocol facts and
//! are journaled by the protocol's node host, not here.

use serde::{Deserialize, Serialize};

/// Counters collected during a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total messages delivered (excluding external inputs and timers).
    pub messages_delivered: u64,
    /// External inputs injected.
    pub external_inputs: u64,
    /// Timer firings.
    pub timer_firings: u64,
    /// Messages lost to faults: deliveries to a crashed node or over a blocked
    /// link (see [`crate::SimFault`]).
    pub messages_dropped: u64,
    /// External inputs and timer firings silenced because their node was crashed.
    pub silenced_inputs: u64,
}
