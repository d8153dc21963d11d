//! One serving node of a fleet: a [`NetServer`] plus its snapshot store
//! (read on first demand, written by a periodic persistence sweeper).

use moqo_cost::ResolutionSchedule;
use moqo_costmodel::SharedCostModel;
use moqo_serve::{ModelRegistry, MoqoServer, NetConfig, NetServer, ServeConfig, SnapshotStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How one [`FleetNode`] starts.
#[derive(Clone, Debug)]
pub struct FleetNodeConfig {
    /// Stable node name (what the [`Placement`](crate::Placement)
    /// hashes; survives address changes).
    pub id: String,
    /// Bind address; port 0 picks a free port (read the actual one from
    /// [`FleetNode::addr`]).
    pub addr: String,
    /// The **shared** snapshot directory all fleet nodes persist to and
    /// read from; `None` runs without durability (nothing survives a
    /// kill, and a key that moves starts cold on its new home). The node
    /// reads a key's file on first demand — when an open misses its warm
    /// store — so it parks only the keys it serves.
    pub store_dir: Option<PathBuf>,
    /// Persistence sweep cadence; `None` saves only at [`FleetNode::stop`].
    pub sweep: Option<Duration>,
    /// The node-wide resolution ladder.
    pub schedule: ResolutionSchedule,
    /// Shards, admission, channels — the in-process serving config.
    pub serve: ServeConfig,
    /// I/O threads and socket timeouts of the TCP front.
    pub net: NetConfig,
}

impl FleetNodeConfig {
    /// A loopback node named `id` with default serving knobs, no store.
    pub fn loopback(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            addr: "127.0.0.1:0".to_string(),
            store_dir: None,
            sweep: None,
            schedule: ResolutionSchedule::linear(2, 1.1, 0.4),
            serve: ServeConfig::default(),
            net: NetConfig::default(),
        }
    }

    /// Persist to (and read on demand from) `dir`.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Sweep parked frontiers to the store every `every`.
    pub fn with_sweep(mut self, every: Duration) -> Self {
        self.sweep = Some(every);
        self
    }
}

/// One running node: the in-process server, its TCP front, its snapshot
/// store, and (optionally) a persistence sweeper thread.
pub struct FleetNode {
    id: String,
    net: NetServer,
    store: Option<Arc<SnapshotStore>>,
    sweeper_stop: Arc<AtomicBool>,
    sweeper: Option<JoinHandle<()>>,
}

impl FleetNode {
    /// Binds and starts the node; attaches the store, when it has one,
    /// as the engine's warm-store miss loader.
    pub fn start(model: SharedCostModel, config: FleetNodeConfig) -> std::io::Result<FleetNode> {
        let server = Arc::new(MoqoServer::new(
            model.clone(),
            config.schedule.clone(),
            config.serve.clone(),
        ));
        let registry = Arc::new(ModelRegistry::with_default(model));
        let store = config
            .store_dir
            .map(|dir| Arc::new(SnapshotStore::new(dir)));
        if let Some(store) = &store {
            store.attach(server.engine());
        }
        let net_config = NetConfig {
            addr: config.addr,
            ..config.net
        };
        let net = NetServer::bind(server, registry, net_config)?;
        let sweeper_stop = Arc::new(AtomicBool::new(false));
        let sweeper = match (&store, config.sweep) {
            (Some(store), Some(every)) => {
                let store = store.clone();
                let server = net.moqo().clone();
                let stop = sweeper_stop.clone();
                Some(
                    std::thread::Builder::new()
                        .name(format!("moqo-fleet-sweep-{}", config.id))
                        .spawn(move || {
                            // Sleep in short slices so stop/kill joins
                            // promptly even with a long sweep cadence.
                            let slice = Duration::from_millis(10);
                            'sweeps: loop {
                                let mut slept = Duration::ZERO;
                                while slept < every {
                                    if stop.load(Ordering::Relaxed) {
                                        break 'sweeps;
                                    }
                                    std::thread::sleep(slice.min(every - slept));
                                    slept += slice;
                                }
                                let _ = store.save(server.engine());
                            }
                        })?,
                )
            }
            _ => None,
        };
        Ok(FleetNode {
            id: config.id,
            net,
            store,
            sweeper_stop,
            sweeper,
        })
    }

    /// The node's stable name.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The actually bound `host:port` (resolves port 0).
    pub fn addr(&self) -> String {
        self.net.local_addr().to_string()
    }

    /// The TCP front (stats, and the in-process server behind it).
    pub fn net(&self) -> &NetServer {
        &self.net
    }

    /// The node's snapshot store, when configured.
    pub fn store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.as_ref()
    }

    fn join_sweeper(&mut self) {
        self.sweeper_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sweeper.take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: final persistence sweep (parked state reaches
    /// the store), then the TCP front drains and joins.
    pub fn stop(mut self) {
        self.join_sweeper();
        if let Some(store) = &self.store {
            let _ = store.save(self.net.moqo().engine());
        }
        // net's Drop shuts the front down.
    }

    /// Crash semantics: the front goes down *without* a final sweep —
    /// anything parked since the last periodic sweep is lost, exactly
    /// like a killed process. What the sweeper already persisted stays
    /// in the shared store for the next home to read.
    pub fn kill(mut self) {
        self.join_sweeper();
        self.store = None;
        // net's Drop closes sockets and joins the I/O threads.
    }
}

impl Drop for FleetNode {
    fn drop(&mut self) {
        self.join_sweeper();
    }
}
