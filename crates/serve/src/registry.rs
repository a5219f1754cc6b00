//! Multi-tenant model registry: lazy load, LRU eviction, explicit swap.
//!
//! The registry maps building ids onto [`FittedModel`]s backed by a
//! model directory: the artifact for building `hq` lives at
//! `<dir>/hq.json` (exactly what `fis-one fit --out` writes). Models are
//! loaded lazily on first request and cached under a configurable budget:
//!
//! - **LRU eviction** — when loading a model would exceed
//!   [`RegistryConfig::max_models`] or [`RegistryConfig::max_bytes`]
//!   (the artifact bytes read as the memory proxy), the least recently
//!   used other model is dropped first. The model being served is never
//!   evicted to make room for itself.
//! - **Explicit publish** — the registry reads the model directory only
//!   on a miss (first load, or after an eviction) and on
//!   [`ModelRegistry::swap`]; a hit never touches disk. A resident model
//!   therefore keeps serving until `swap`, [`ModelRegistry::evict`] or
//!   an LRU eviction: rewriting or deleting its artifact does nothing on
//!   its own. To publish a refit, write the artifact
//!   ([`FittedModel::save`] writes atomically, temp file + rename, so no
//!   read ever sees half an artifact; other writers should do the same),
//!   then swap it in. A swap reads, parses and replaces the entry
//!   unconditionally; a failed read or parse drops the entry and returns
//!   the typed error.
//!
//! Eviction history cannot change responses: artifacts load
//! byte-identically and [`FittedModel::assign`] is deterministic in
//! `(model, scan)` alone, so evict → reload → assign is bit-identical to
//! assign on the original load. `tests/serve_determinism.rs` enforces
//! this against the golden fixtures.
//!
//! # Concurrency
//!
//! [`ModelRegistry`] is shared by reference across connections: every
//! method takes `&self`, and the state sits behind one private mutex
//! held only for *bookkeeping* — the entry lookup, installing an entry,
//! the budget. A hit is one short lock hold. A miss takes the
//! building's *load slot*, a per-building mutex held outside the
//! registry lock, and checks the entry again, because a request that
//! waited on the slot usually finds the entry the load it waited on
//! installed. The read and parse run with no registry lock
//! held, so requests for the same building share one load and requests
//! for other buildings never wait on it. A swap holds the same slot, so
//! a load that read the old bytes before the swap installs before it
//! and is replaced by it. A slot goes as soon as no request holds or
//! waits on it, so the slot map holds only the buildings with a load or
//! swap in flight.
//!
//! Inference ([`FittedModel::assign_stream`]) runs in the caller on the
//! model [`ModelRegistry::get`] returned, outside the lock, and so do
//! the `registry` trace events. An assignment is a pure function of
//! `(model, scan content)`, so lock order can change *when* answers are
//! computed, never *what* they are.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use fis_core::FittedModel;
use fis_obs::{self as obs, Level};

use crate::error::ServeError;

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory holding `<building>.json` artifacts.
    pub dir: PathBuf,
    /// Maximum cached models (`0` = unlimited).
    pub max_models: usize,
    /// Maximum total artifact bytes cached (`0` = unlimited).
    pub max_bytes: u64,
}

impl RegistryConfig {
    /// A registry over `dir` with no cache budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_models: 0,
            max_bytes: 0,
        }
    }

    /// Caps the cached model count (`0` = unlimited).
    pub fn max_models(mut self, n: usize) -> Self {
        self.max_models = n;
        self
    }

    /// Caps the cached artifact bytes (`0` = unlimited).
    pub fn max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = n;
        self
    }
}

/// Cache counters, exact over the registry's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests, and swaps of a building with no resident entry, that
    /// had to load from disk.
    pub misses: u64,
    /// Models dropped by the LRU budget or an explicit `evict`.
    pub evictions: u64,
    /// Swaps that replaced a resident entry.
    pub reloads: u64,
    /// Loads and swaps that failed on an artifact that exists but could
    /// not be read, or is corrupt or mismatched.
    pub load_failures: u64,
}

/// Counters and gauges taken under one registry lock hold: what the
/// `stats` op and the Prometheus exposition report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Lifetime counters.
    pub stats: RegistryStats,
    /// Resident building ids with their artifact sizes, sorted by id.
    pub loaded: Vec<(String, u64)>,
}

impl RegistrySnapshot {
    /// Total resident artifact bytes.
    pub fn bytes(&self) -> u64 {
        self.loaded.iter().map(|(_, bytes)| bytes).sum()
    }
}

#[derive(Debug)]
struct Entry {
    model: Arc<FittedModel>,
    /// Length of the artifact text `model` was parsed from: the
    /// byte-budget proxy.
    bytes: u64,
    last_used: u64,
}

/// A cached, loaded model plus how it got there (for metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Served from the cache.
    Hit,
    /// Loaded from disk for the first time (or after an eviction).
    Miss,
    /// Replaced a resident entry on [`ModelRegistry::swap`].
    Reload,
}

/// Where a fetch that took the load slot spent its time: the fields of
/// its `registry` `load` event.
#[derive(Debug, Clone, Copy, Default)]
struct LoadTimes {
    /// Waiting on the building's load slot.
    wait_ns: u64,
    /// Reading the artifact file.
    read_ns: u64,
    /// Decoding and validating the artifact text into a model.
    decode_ns: u64,
}

/// What [`ModelRegistry::get`] and [`ModelRegistry::swap`] return.
type Fetched = Result<(Arc<FittedModel>, Fetch), ServeError>;

/// Everything behind the registry lock.
#[derive(Debug, Default)]
pub(crate) struct State {
    entries: HashMap<String, Entry>,
    /// Single-flight load slots of the buildings some request is loading
    /// or swapping. Clones are taken and dropped only under the registry
    /// lock, so a slot whose strong count is 1 is held by no request, and
    /// the last request to let go of it removes it.
    slots: HashMap<String, Arc<Mutex<()>>>,
    tick: u64,
    stats: RegistryStats,
}

/// The lazy, budgeted, thread-safe model cache. See the
/// [module docs](self).
#[derive(Debug)]
pub struct ModelRegistry {
    config: RegistryConfig,
    state: Mutex<State>,
}

impl ModelRegistry {
    /// Creates an empty registry over the configured model directory.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            config,
            state: Mutex::default(),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Lifetime cache counters.
    pub fn stats(&self) -> RegistryStats {
        self.lock().stats
    }

    /// Counters and residents, both from one lock hold.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let state = self.lock();
        let mut loaded: Vec<(String, u64)> = state
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.bytes))
            .collect();
        loaded.sort();
        RegistrySnapshot {
            stats: state.stats,
            loaded,
        }
    }

    /// The artifact path for a building id.
    pub fn artifact_path(&self, building: &str) -> PathBuf {
        self.config.dir.join(format!("{building}.json"))
    }

    /// Fetches the model for `building`: the resident entry if there is
    /// one, else a load from disk. Returns the model and whether this
    /// was a hit or a miss. A hit makes no filesystem call.
    ///
    /// # Errors
    ///
    /// - [`ServeError::Protocol`] for ids that cannot name an artifact
    ///   (path separators, `.` / `..`),
    /// - [`ServeError::UnknownBuilding`] when no artifact exists,
    /// - [`ServeError::Model`] when the artifact cannot be read, is
    ///   corrupt, or was fitted for a different building id.
    pub fn get(&self, building: &str) -> Result<(Arc<FittedModel>, Fetch), ServeError> {
        self.traced(building, false)
    }

    /// Publishes the artifact now on disk: reads and parses it, then
    /// replaces the resident entry unconditionally. Returns [`Fetch::Reload`] when an entry was
    /// resident and [`Fetch::Miss`] when none was. A failed read or
    /// parse drops the entry. Runs under the building's load slot, so a
    /// load that read older bytes installs before the swap, never after.
    ///
    /// # Errors
    ///
    /// The [`ModelRegistry::get`] errors.
    pub fn swap(&self, building: &str) -> Result<(Arc<FittedModel>, Fetch), ServeError> {
        self.traced(building, true)
    }

    /// Drops a cached model; returns whether it was cached. The artifact
    /// stays on disk and the next request loads it.
    pub fn evict(&self, building: &str) -> bool {
        // Freeing the model is not bookkeeping: it happens after the
        // registry lock is released.
        let dropped = self.lock().take_entry(building);
        let evicted = dropped.is_some();
        drop(dropped);
        obs::event(Level::Info, "registry", "evict")
            .str("building", building)
            .field("evicted", fis_types::json::Json::Bool(evicted))
            .emit();
        evicted
    }

    /// The registry lock. A poisoned lock is recovered, so one
    /// panicking request cannot wedge every other connection.
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Self::fetch`] with its `registry` trace event.
    fn traced(&self, building: &str, swap: bool) -> Fetched {
        let mut times = LoadTimes::default();
        let fetched = self.fetch(building, swap, &mut times);
        trace_fetch(building, &fetched, times);
        fetched
    }

    /// The body of [`ModelRegistry::get`] (`swap` false) and
    /// [`ModelRegistry::swap`]. A get of a resident building is a hit in
    /// one lock hold; anything else runs [`Self::load`] under the
    /// building's load slot.
    fn fetch(&self, building: &str, swap: bool, times: &mut LoadTimes) -> Fetched {
        validate_building_id(building)?;
        let slot = {
            let mut state = self.lock();
            if !swap {
                if let Some(hit) = state.hit(building) {
                    return Ok(hit);
                }
            }
            Arc::clone(state.slots.entry(building.to_owned()).or_default())
        };
        let waiting = Instant::now();
        // Recovered on poison like the registry lock: the slot guards no
        // data, only who loads next.
        let flight = slot.lock().unwrap_or_else(PoisonError::into_inner);
        times.wait_ns = elapsed_ns(waiting);
        let (fetched, mut state) = self.load(building, swap, times);
        drop(flight);
        state.release_slot(building, slot);
        fetched
    }

    /// The slow path, run holding `building`'s load slot: unless this is
    /// a swap, check the entry again; then read and parse with no
    /// registry lock held, and install. Returns with the registry lock
    /// of its last bookkeeping step still held, so the caller lets go of
    /// the slot under it.
    fn load(
        &self,
        building: &str,
        swap: bool,
        times: &mut LoadTimes,
    ) -> (Fetched, MutexGuard<'_, State>) {
        if !swap {
            // A request that waited on the slot usually finds the entry
            // the load it waited on installed.
            let mut state = self.lock();
            if let Some(hit) = state.hit(building) {
                return (Ok(hit), state);
            }
        }
        let read = self.read_artifact(building, times);
        let mut state = self.lock();
        let (model, bytes) = match read {
            Ok(read) => read,
            Err(e) => {
                if !matches!(e, ServeError::UnknownBuilding(_)) {
                    state.stats.load_failures += 1;
                }
                // A failed swap must not leave the replaced generation
                // serving.
                state.take_entry(building);
                return (Err(e), state);
            }
        };
        state.tick += 1;
        let fetch = if state.entries.contains_key(building) {
            state.stats.reloads += 1;
            Fetch::Reload
        } else {
            state.stats.misses += 1;
            Fetch::Miss
        };
        let entry = Entry {
            model: Arc::clone(&model),
            bytes,
            last_used: state.tick,
        };
        state.entries.insert(building.to_owned(), entry);
        state.enforce_budget(&self.config, building);
        (Ok((model, fetch)), state)
    }

    /// Reads and decodes `building`'s artifact, returning the model and
    /// the length of its text, and timing both steps into `times`. The
    /// text is freed here, before the caller takes the registry lock.
    fn read_artifact(
        &self,
        building: &str,
        times: &mut LoadTimes,
    ) -> Result<(Arc<FittedModel>, u64), ServeError> {
        let path = self.artifact_path(building);
        let started = Instant::now();
        let text = std::fs::read_to_string(&path);
        times.read_ns = elapsed_ns(started);
        let text = text.map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                ServeError::UnknownBuilding(format!(
                    "no artifact for `{building}` (expected {})",
                    path.display()
                ))
            } else {
                ServeError::Model(format!("read {} failed: {e}", path.display()))
            }
        })?;
        let started = Instant::now();
        let model = parse_artifact(building, &path, &text);
        times.decode_ns = elapsed_ns(started);
        Ok((Arc::new(model?), text.len() as u64))
    }
}

impl State {
    /// A hit on `building`'s resident entry, if there is one.
    fn hit(&mut self, building: &str) -> Option<(Arc<FittedModel>, Fetch)> {
        let entry = self.entries.get_mut(building)?;
        self.tick += 1;
        entry.last_used = self.tick;
        self.stats.hits += 1;
        Some((Arc::clone(&entry.model), Fetch::Hit))
    }

    /// Lets go of a request's clone of `building`'s load slot, removing
    /// the slot once no request holds it.
    fn release_slot(&mut self, building: &str, slot: Arc<Mutex<()>>) {
        drop(slot);
        if self
            .slots
            .get(building)
            .is_some_and(|s| Arc::strong_count(s) == 1)
        {
            self.slots.remove(building);
        }
    }

    /// Removes a cached model, counting the eviction.
    fn take_entry(&mut self, building: &str) -> Option<Entry> {
        let taken = self.entries.remove(building);
        if taken.is_some() {
            self.stats.evictions += 1;
        }
        taken
    }

    /// Evicts least-recently-used models until the budget holds, never
    /// touching `keep` (the model being served right now).
    fn enforce_budget(&mut self, config: &RegistryConfig, keep: &str) {
        loop {
            let over_count = config.max_models > 0 && self.entries.len() > config.max_models;
            let over_bytes = config.max_bytes > 0
                && self.entries.values().map(|e| e.bytes).sum::<u64>() > config.max_bytes;
            if !over_count && !over_bytes {
                return;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != keep)
                // Tie-break on the id so eviction order is deterministic
                // even if two entries share a tick (they cannot today).
                .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.take_entry(&k);
                }
                // Only the active model is left; keep serving it even if
                // it alone exceeds the byte budget.
                None => return,
            }
        }
    }
}

/// Parses an artifact from its already-read text and validates the
/// building-id pairing.
fn parse_artifact(building: &str, path: &Path, text: &str) -> Result<FittedModel, ServeError> {
    let model = FittedModel::from_json_str(text.trim_end_matches('\n'))?;
    if model.building() != building {
        return Err(ServeError::Model(format!(
            "artifact {} was fitted for building `{}`, not `{building}`; \
             registry files must be named after the building they serve",
            path.display(),
            model.building()
        )));
    }
    Ok(model)
}

/// Records one fetch on the request thread, after the lock: cache hits
/// at trace, disk traffic at info (with the slot wait and the load's own
/// time: `load_ns`, the sum of `read_ns` for the file and `decode_ns`
/// for the model), failures at warn — each event inherits the enclosing
/// request/assign span.
fn trace_fetch(building: &str, fetched: &Fetched, times: LoadTimes) {
    let (level, name, key, value) = match fetched {
        Ok((_, Fetch::Hit)) => (Level::Trace, "load", "fetch", "hit"),
        Ok((_, Fetch::Miss)) => (Level::Info, "load", "fetch", "miss"),
        Ok((_, Fetch::Reload)) => (Level::Info, "load", "fetch", "reload"),
        Err(e) => (Level::Warn, "load_error", "kind", e.kind()),
    };
    let mut event = obs::event(level, "registry", name)
        .str("building", building)
        .str(key, value);
    if let Ok((_, Fetch::Miss | Fetch::Reload)) = fetched {
        event = event
            .num("load_ns", (times.read_ns + times.decode_ns) as f64)
            .num("read_ns", times.read_ns as f64)
            .num("decode_ns", times.decode_ns as f64)
            .num("wait_ns", times.wait_ns as f64);
    }
    event.emit();
}

/// Nanoseconds since `since`, saturating.
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn validate_building_id(building: &str) -> Result<(), ServeError> {
    if building.is_empty()
        || building == "."
        || building == ".."
        || building.contains('/')
        || building.contains('\\')
        || building.contains('\0')
    {
        return Err(ServeError::Protocol(format!(
            "building id `{}` cannot name an artifact file",
            building.escape_default()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_core::{FisOne, FisOneConfig};
    use fis_synth::BuildingConfig;
    use fis_types::{FloorId, SignalSample};

    fn quick_model(name: &str, samples: usize, seed: u64) -> FittedModel {
        let b = BuildingConfig::new(name, 3)
            .samples_per_floor(samples)
            .aps_per_floor(8)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        FisOne::new(FisOneConfig::quick(seed))
            .fit(
                b.name(),
                b.samples(),
                b.floors(),
                b.bottom_anchor().unwrap(),
            )
            .unwrap()
    }

    /// One scan through the daemon's assign path: a registry fetch,
    /// then the model's stream, which must label it.
    fn assign_one(reg: &ModelRegistry, building: &str, scan: &SignalSample) -> FloorId {
        let (model, _) = reg.get(building).unwrap();
        let mut results = model.assign_stream(std::slice::from_ref(scan), 1);
        results.pop().unwrap().unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fis_registry_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lazy_load_then_hit() {
        let dir = temp_dir("lazy");
        let model = quick_model("alpha", 15, 1);
        model.save(dir.join("alpha.json")).unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (m1, f1) = reg.get("alpha").unwrap();
        assert_eq!(f1, Fetch::Miss);
        let (m2, f2) = reg.get("alpha").unwrap();
        assert_eq!(f2, Fetch::Hit);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(reg.stats().hits, 1);
        assert_eq!(reg.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_building_is_typed_and_frees_its_slot() {
        let dir = temp_dir("unknown");
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let err = reg.get("ghost").unwrap_err();
        assert_eq!(err.kind(), "unknown_building");
        assert!(
            reg.lock().slots.is_empty(),
            "a missing artifact kept its slot"
        );
        assert_eq!(reg.stats().load_failures, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ids_are_rejected_before_touching_disk() {
        let dir = temp_dir("hostile");
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        for id in ["", ".", "..", "../etc/passwd", "a/b", "a\\b", "nul\0"] {
            assert_eq!(reg.get(id).unwrap_err().kind(), "protocol", "id {id:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_artifact_name_is_model_error() {
        let dir = temp_dir("mismatch");
        quick_model("real-name", 15, 2)
            .save(dir.join("wrong-name.json"))
            .unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let err = reg.get("wrong-name").unwrap_err();
        assert_eq!(err.kind(), "model");
        assert!(err.message().contains("real-name"));
        assert_eq!(reg.stats().load_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_model_error() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bad.json"), "{\"schema\": \"nope\"").unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        assert_eq!(reg.get("bad").unwrap_err().kind(), "model");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_artifact_serves_until_swap_then_is_unknown() {
        let dir = temp_dir("deleted");
        let path = dir.join("gone.json");
        quick_model("gone", 15, 3).save(&path).unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (model, _) = reg.get("gone").unwrap();
        std::fs::remove_file(&path).unwrap();
        // Deleting the artifact does nothing on its own.
        let (resident, fetch) = reg.get("gone").unwrap();
        assert_eq!(fetch, Fetch::Hit);
        assert!(Arc::ptr_eq(&model, &resident));
        // A swap finds no artifact: it fails typed and drops the entry.
        assert_eq!(reg.swap("gone").unwrap_err().kind(), "unknown_building");
        assert_eq!(reg.snapshot().loaded.len(), 0);
        assert_eq!(reg.get("gone").unwrap_err().kind(), "unknown_building");
        assert!(reg.lock().slots.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_under_model_budget() {
        let dir = temp_dir("lru");
        for (name, seed) in [("a", 4), ("b", 5), ("c", 6)] {
            quick_model(name, 15, seed)
                .save(dir.join(format!("{name}.json")))
                .unwrap();
        }
        let reg = ModelRegistry::new(RegistryConfig::new(&dir).max_models(2));
        reg.get("a").unwrap();
        reg.get("b").unwrap();
        reg.get("a").unwrap(); // a is now more recent than b
        reg.get("c").unwrap(); // evicts b (LRU)
        let loaded: Vec<String> = reg.snapshot().loaded.into_iter().map(|(k, _)| k).collect();
        assert_eq!(loaded, ["a", "c"]);
        assert_eq!(reg.stats().evictions, 1);
        // b reloads on demand — a fresh miss, identical model.
        let (_, fetch) = reg.get("b").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_never_evicts_the_active_model() {
        let dir = temp_dir("bytes");
        quick_model("solo", 15, 7)
            .save(dir.join("solo.json"))
            .unwrap();
        // 1-byte budget: the lone active model still serves.
        let reg = ModelRegistry::new(RegistryConfig::new(&dir).max_bytes(1));
        let (model, _) = reg.get("solo").unwrap();
        assert_eq!(model.building(), "solo");
        assert_eq!(reg.snapshot().loaded.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewritten_artifact_serves_only_after_swap() {
        let dir = temp_dir("reload");
        let path = dir.join("hot.json");
        quick_model("hot", 15, 8).save(&path).unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (old, _) = reg.get("hot").unwrap();
        quick_model("hot", 20, 9).save(&path).unwrap();
        let (still, fetch) = reg.get("hot").unwrap();
        assert_eq!(fetch, Fetch::Hit, "a rewrite alone must not reload");
        assert!(Arc::ptr_eq(&old, &still));
        let (new, fetch) = reg.swap("hot").unwrap();
        assert_eq!(fetch, Fetch::Reload);
        assert_eq!(reg.stats().reloads, 1);
        assert_eq!((old.samples().len(), new.samples().len()), (45, 60));
        let (served, fetch) = reg.get("hot").unwrap();
        assert_eq!(fetch, Fetch::Hit);
        assert!(Arc::ptr_eq(&new, &served));
        // A swap with nothing resident is a plain load.
        assert!(reg.evict("hot"));
        assert_eq!(reg.swap("hot").unwrap().1, Fetch::Miss);
        assert_eq!(reg.stats().reloads, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_swap_drops_the_replaced_generation() {
        let dir = temp_dir("bad_swap");
        let path = dir.join("flip.json");
        quick_model("flip", 15, 11).save(&path).unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        reg.get("flip").unwrap();
        std::fs::write(&path, "{\"schema\": \"nope\"").unwrap();
        assert_eq!(reg.swap("flip").unwrap_err().kind(), "model");
        assert_eq!(reg.stats().load_failures, 1);
        assert_eq!(reg.snapshot().loaded.len(), 0, "the old model kept serving");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_then_reload_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        quick_model("rt", 15, 10).save(dir.join("rt.json")).unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (first, _) = reg.get("rt").unwrap();
        let scan = first.samples()[0].clone();
        let before = assign_one(&reg, "rt", &scan);
        assert!(reg.evict("rt"));
        assert!(!reg.evict("rt"));
        let (second, fetch) = reg.get("rt").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(first.to_json_string(), second.to_json_string());
        assert_eq!(assign_one(&reg, "rt", &scan), before);
        assert_eq!(before, first.assign(&scan).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Makes `path` a FIFO: a load of it blocks in its read until the
    /// test writes the artifact bytes and closes the write end.
    #[cfg(unix)]
    fn mkfifo(path: &Path) {
        let status = std::process::Command::new("mkfifo")
            .arg(path)
            .status()
            .expect("run mkfifo");
        assert!(status.success(), "mkfifo {}", path.display());
    }

    #[cfg(unix)]
    #[test]
    fn a_load_in_flight_blocks_no_other_building_and_is_shared() {
        use std::io::Write;
        use std::sync::mpsc;
        let dir = temp_dir("inflight");
        quick_model("y", 15, 40).save(dir.join("y.json")).unwrap();
        let staged = dir.join("x.staged");
        quick_model("x", 15, 41).save(&staged).unwrap();
        let artifact = std::fs::read(&staged).unwrap();
        let fifo = dir.join("x.json");
        mkfifo(&fifo);
        let reg = &ModelRegistry::new(RegistryConfig::new(&dir));
        reg.get("y").unwrap();
        let misses = reg.stats().misses;
        std::thread::scope(|s| {
            let first = s.spawn(|| reg.get("x"));
            // Opening the write end returns once the load has opened the
            // read end: x's load now holds its slot, blocked in the read
            // until the write end closes.
            let mut writer = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
            // Another building's requests all return meanwhile. They run
            // on their own thread, so a stall fails the test after the
            // load is released instead of hanging it.
            let (tx, rx) = mpsc::channel();
            s.spawn(move || {
                let fetch = reg.get("y").map(|(_, fetch)| fetch);
                let resident = reg.snapshot().loaded.len();
                let evicted = reg.evict("y");
                tx.send((fetch, resident, evicted)).unwrap();
            });
            let others = rx.recv_timeout(std::time::Duration::from_secs(60));
            // A second request for x queues on the slot: once it holds a
            // clone (map + loader + waiter), let the load finish.
            let second = s.spawn(|| reg.get("x"));
            while reg.lock().slots.get("x").map_or(0, Arc::strong_count) < 3 {
                std::thread::yield_now();
            }
            writer.write_all(&artifact).unwrap();
            drop(writer);
            let (a, fetch_a) = first.join().unwrap().unwrap();
            let (b, fetch_b) = second.join().unwrap().unwrap();

            let (fetch_y, resident, evicted) = others.expect("a request for y waited on x's load");
            assert_eq!(fetch_y.unwrap(), Fetch::Hit);
            assert_eq!(resident, 1, "only y was resident during x's load");
            assert!(evicted);
            assert_eq!((fetch_a, fetch_b), (Fetch::Miss, Fetch::Hit));
            assert!(Arc::ptr_eq(&a, &b), "the waiter shares the one load");
        });
        assert_eq!(reg.stats().misses - misses, 1, "x was parsed once");
        assert!(reg.lock().slots.is_empty(), "slots outlived their loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_corrupt_loads_fail_typed_and_free_the_slot() {
        let dir = temp_dir("corrupt_pair");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"schema\": \"nope\"").unwrap();
        let reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let barrier = std::sync::Barrier::new(2);
        let kinds: Vec<&str> = std::thread::scope(|s| {
            let requests: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        reg.get("bad").unwrap_err().kind()
                    })
                })
                .collect();
            requests.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(kinds, ["model", "model"]);
        assert_eq!(reg.stats().load_failures, 2);
        assert!(reg.lock().slots.is_empty(), "a failed load kept its slot");
        // The slot is not wedged: the fixed artifact loads.
        quick_model("bad", 15, 42).save(&path).unwrap();
        let (model, fetch) = reg.get("bad").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(model.building(), "bad");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_swap_behind_a_load_of_the_old_bytes_leaves_the_new_generation() {
        use std::io::Write;
        let dir = temp_dir("swap_race");
        let staged = dir.join("x.staged");
        quick_model("x", 15, 43).save(&staged).unwrap();
        let old_bytes = std::fs::read(&staged).unwrap();
        quick_model("x", 20, 44).save(&staged).unwrap();
        let fifo = dir.join("x.json");
        mkfifo(&fifo);
        let reg = &ModelRegistry::new(RegistryConfig::new(&dir));
        std::thread::scope(|s| {
            let load = s.spawn(|| reg.get("x"));
            // The miss-load now holds x's slot, blocked in its read of
            // the old bytes. Publish the new generation over the path,
            // then swap: the swap queues on the slot.
            let mut writer = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
            std::fs::rename(&staged, &fifo).unwrap();
            let swap = s.spawn(|| reg.swap("x"));
            while reg.lock().slots.get("x").map_or(0, Arc::strong_count) < 3 {
                std::thread::yield_now();
            }
            // Queued, the swap can neither finish nor install while the
            // load is blocked.
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(!swap.is_finished(), "the swap ran beside the load");
            assert!(reg.snapshot().loaded.is_empty());
            writer.write_all(&old_bytes).unwrap();
            drop(writer);
            let (old, fetch_old) = load.join().unwrap().unwrap();
            let (new, fetch_new) = swap.join().unwrap().unwrap();
            assert_eq!((fetch_old, fetch_new), (Fetch::Miss, Fetch::Reload));
            assert_eq!((old.samples().len(), new.samples().len()), (45, 60));
            let (served, fetch) = reg.get("x").unwrap();
            assert_eq!(fetch, Fetch::Hit);
            assert!(
                Arc::ptr_eq(&served, &new),
                "the old bytes outlived the swap"
            );
        });
        assert!(reg.lock().slots.is_empty(), "slots outlived their loads");
        std::fs::remove_dir_all(&dir).ok();
    }
}
