//! The session's cache layers: the LRU [`CacheMap`], the per-instance
//! tree encodings, the per-(query, width) machines and the per-(query,
//! instance) lineages, with the one lineage compile body behind the
//! cached path ([`EvalSession::lineage_artifact`]) and the cold oracle
//! ([`EvalSession::cold_lineage`]).

use super::{EngineError, EvalSession, InstanceId, QueryId};
use crate::parallel::{compile_run, ParallelDnnf};
use crate::pool::{lock_recovering, run_tasks};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use treelineage_encoding::{
    compile_ucq, CompileOptions, CompiledQuery, EncodingAlphabet, EncodingError, EncodingPlan,
    LiveStates, TreeEncoding,
};

/// Maximum number of compiled query machines an [`EvalSession`] keeps (per
/// (query, alphabet width); least recently used evicted first).
pub(super) const QUERY_CACHE_CAP: usize = 64;

/// A capacity-capped map with true LRU eviction: every hit refreshes the
/// entry's recency stamp, and inserting past the cap evicts the least
/// recently *used* entry, so a hot (query, instance) pair registered first
/// outlives cold later entries. Recency is a monotone stamp per entry;
/// eviction scans for the minimum stamp, which is linear but negligible
/// against the compile work a single eviction implies at the configured
/// cache caps.
pub(super) struct CacheMap<K: Ord + Clone, V: Clone> {
    map: BTreeMap<K, (V, u64)>,
    stamp: u64,
    cap: usize,
}

impl<K: Ord + Clone, V: Clone> CacheMap<K, V> {
    pub(super) fn new(cap: usize) -> Self {
        CacheMap {
            map: BTreeMap::new(),
            stamp: 0,
            cap: cap.max(1),
        }
    }

    pub(super) fn get(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(value, last_used)| {
            *last_used = stamp;
            value.clone()
        })
    }

    /// The entry for `key`, *without* refreshing its recency stamp — for
    /// observability probes ([`EvalSession::explain`]) that must not
    /// perturb the eviction order they are reporting on.
    pub(super) fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(value, _)| value)
    }

    /// Inserts `key`, evicting the least recently used entry when that
    /// takes the map past its cap (one insert adds at most one entry).
    pub(super) fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        self.map.insert(key, (value, self.stamp));
        if self.map.len() > self.cap {
            let coldest = self.map.iter().min_by_key(|(_, (_, last_used))| *last_used);
            if let Some(coldest) = coldest.map(|(k, _)| k.clone()) {
                self.map.remove(&coldest);
            }
        }
    }

    /// Removes every entry whose key matches `pred` and returns how many
    /// (the structural-invalidation path: evict all lineages of one
    /// instance).
    pub(super) fn remove_matching(&mut self, pred: impl Fn(&K) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| !pred(k));
        before - self.map.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

/// Point-in-time occupancy of an [`EvalSession`]'s cache layers, from
/// [`EvalSession::cache_occupancy`]. Entry counts never exceed the matching
/// capacity (the caches evict on insert past the cap); the encoding layer
/// is per registered instance and uncapped, so it reports how many
/// instances have materialized their encoding so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Compiled lineages resident in the (query, instance) cache.
    pub lineage_entries: usize,
    /// Capacity of the lineage cache
    /// ([`EngineConfig::lineage_cache_cap`](crate::EngineConfig::lineage_cache_cap)).
    pub lineage_capacity: usize,
    /// Compiled query machines resident in the (query, width) cache.
    pub machine_entries: usize,
    /// Capacity of the machine cache (64 compiled query machines).
    pub machine_capacity: usize,
    /// Registered instances whose tree encoding has been built.
    pub encodings: usize,
}

/// One resident lineage-cache entry: the artifact and the per-node live
/// states of the run it was compiled from.
#[derive(Clone)]
pub(super) struct CachedLineage {
    pub(super) artifact: Arc<ParallelDnnf>,
    pub(super) live: LiveStates,
}

/// Query-machine cache: (query, width) → shared, lockable [`CompiledQuery`].
pub(super) type MachineCache = CacheMap<(usize, usize), Arc<Mutex<CompiledQuery>>>;

/// A (query, instance) pair's compiled lineage, or why it did not compile.
pub(super) type Artifact = Result<Arc<ParallelDnnf>, EngineError>;

impl EvalSession {
    /// Occupancy and capacity of every cache layer, for capacity planning
    /// (are evictions churning?) and leak spotting.
    pub fn cache_occupancy(&self) -> CacheOccupancy {
        // Guards in a struct literal would live to the end of the whole
        // expression — locking the same cache twice there deadlocks, so
        // each lock is scoped to its own statement.
        let (lineage_entries, lineage_capacity) = {
            let lineages = lock_recovering(&self.lineages);
            (lineages.len(), lineages.capacity())
        };
        let (machine_entries, machine_capacity) = {
            let machines = lock_recovering(&self.machines);
            (machines.len(), machines.capacity())
        };
        CacheOccupancy {
            lineage_entries,
            lineage_capacity,
            machine_entries,
            machine_capacity,
            encodings: self
                .instances
                .iter()
                .filter(|e| lock_recovering(&e.encoding).is_some())
                .count(),
        }
    }

    /// The alphabet width of the instance's tree encoding, `None` while the
    /// encoding is not resident.
    pub(super) fn encoding_width(&self, instance: usize) -> Option<usize> {
        lock_recovering(&self.instances[instance].encoding)
            .as_ref()
            .map(|e| e.alphabet().width())
    }

    /// Compiles (or fetches) the lineage of every distinct (query,
    /// instance) pair of a batch, in parallel across pairs; each compile
    /// runs on the thread that picked its pair.
    pub(super) fn compile_pairs(
        &self,
        pairs: impl Iterator<Item = (usize, usize)>,
    ) -> BTreeMap<(usize, usize), Artifact> {
        let unique: Vec<(usize, usize)> = pairs.collect::<BTreeSet<_>>().into_iter().collect();
        let compiled = run_tasks(
            self.config.threads,
            unique.len(),
            &self.config.telemetry,
            |k| {
                // One span per pair: a cold compile's encode/compile spans
                // all parent under it (joining the spawning request's trace
                // via the inherited context), instead of floating as roots.
                let mut span = self.config.telemetry.span("compile_pair");
                span.label("query", unique[k].0);
                span.label("instance", unique[k].1);
                self.lineage(unique[k].0, unique[k].1)
            },
        );
        unique.into_iter().zip(compiled).collect()
    }

    /// Inner (per-task) thread count: full fan-out for a lone task, no
    /// nesting once the task set itself saturates the pool.
    pub(super) fn eval_threads(&self, task_count: usize) -> usize {
        if task_count <= 1 {
            self.config.threads
        } else {
            1
        }
    }

    /// The lineage d-SDNNF of (query, instance), through the session
    /// caches. Concurrent misses on the same pair may compile twice; the
    /// construction is deterministic, so both results are identical and
    /// either may be cached. The fragment plan uses the session's thread
    /// count, so cached artifacts carry the partition fragment-parallel
    /// evaluations need.
    pub(super) fn lineage(&self, query: usize, instance: usize) -> Artifact {
        if let Some(hit) = lock_recovering(&self.lineages).get(&(query, instance)) {
            self.count(|s| s.lineage_hits += 1);
            return Ok(hit.artifact);
        }
        self.count(|s| s.lineage_misses += 1);
        let encoding = self.encoding(instance)?;
        let (artifact, live) = self.compile(query, &encoding)?;
        let artifact = Arc::new(artifact);
        let entry = CachedLineage {
            artifact: artifact.clone(),
            live,
        };
        lock_recovering(&self.lineages).insert((query, instance), entry);
        Ok(artifact)
    }

    /// The cached lineage d-SDNNF of a (query, instance) pair through the
    /// session caches, for callers that want the circuit itself (the
    /// update differential suite, benches) rather than an answer. Compiles
    /// on miss like any request would.
    pub fn lineage_artifact(
        &self,
        query: QueryId,
        instance: InstanceId,
    ) -> Result<Arc<ParallelDnnf>, EngineError> {
        let (q, i) = self.check_request(query, instance, &[])?;
        self.lineage(q, i)
    }

    /// The byte-identity oracle behind the update differential suite (and
    /// perfbench's answer check after writes): compiles the pair's lineage
    /// from scratch — fresh tree encoding (with its own [`EncodingPlan`],
    /// so the suite also pins the cached path's plan replay), no
    /// lineage-cache read or write — through the *same* cached query
    /// machine the cached path uses. Gate numbering depends on the
    /// machine's memo history, so byte-identity of cached against cold is
    /// meaningful exactly when both run through one machine; a fresh
    /// session would number states differently.
    pub fn cold_lineage(
        &self,
        query: QueryId,
        instance: InstanceId,
    ) -> Result<ParallelDnnf, EngineError> {
        let (q, i) = self.check_request(query, instance, &[])?;
        let entry = &self.instances[i];
        let encoding = treelineage_encoding::encode_traced(
            &entry.instance,
            &entry.decomposition,
            &self.config.telemetry,
        )
        .map_err(EngineError::Encoding)?;
        let (artifact, _) = self.compile(q, &encoding)?;
        Ok(artifact)
    }

    /// The one lineage compile body, behind the cached path and the cold
    /// oracle: the query machine for the encoding's width, its run on the
    /// encoding, then the d-SDNNF compile from that run. Returns the
    /// artifact and the live states of the run.
    fn compile(
        &self,
        query: usize,
        encoding: &TreeEncoding,
    ) -> Result<(ParallelDnnf, LiveStates), EngineError> {
        let machine = self.machine(query, encoding.alphabet())?;
        let run = lock_recovering(&machine)
            .run(encoding.tree())
            .map_err(EngineError::QueryCompile)?;
        let artifact = compile_run(&run, encoding.tree(), &self.config)
            .map_err(|e| EngineError::Provenance(e.to_string()))?;
        Ok((artifact, LiveStates::of(&run)))
    }

    /// The instance's tree encoding, built on first use.
    pub(super) fn encoding(&self, instance: usize) -> Result<Arc<TreeEncoding>, EngineError> {
        let mut slot = lock_recovering(&self.instances[instance].encoding);
        if let Some(encoding) = slot.as_ref() {
            return Ok(encoding.clone());
        }
        self.count(|s| s.encodings_built += 1);
        let encoding = {
            let _span = self.config.telemetry.span("encode");
            self.plan(instance)
                .and_then(|plan| plan.encode(&self.instances[instance].instance))
                .map_err(EngineError::Encoding)?
        };
        let arc = Arc::new(encoding);
        *slot = Some(arc.clone());
        Ok(arc)
    }

    /// The instance's one [`EncodingPlan`], built on first use. Trusted:
    /// the decomposition was validated (or is valid by construction) at
    /// registration.
    pub(super) fn plan(&self, instance: usize) -> Result<&EncodingPlan, EncodingError> {
        let entry = &self.instances[instance];
        if let Some(plan) = entry.plan.get() {
            return Ok(plan);
        }
        let plan = EncodingPlan::new_trusted(&entry.instance, &entry.decomposition)?;
        Ok(entry.plan.get_or_init(|| plan))
    }

    /// The compiled query machine for (query, the alphabet's width), built
    /// on first use over the encoding's alphabet (the query's signature is
    /// the instance's: [`EvalSession::check_request`]). The machine's own
    /// deterministic-state memo persists across every instance of that
    /// width.
    fn machine(
        &self,
        query: usize,
        alphabet: &EncodingAlphabet,
    ) -> Result<Arc<Mutex<CompiledQuery>>, EngineError> {
        let width = alphabet.width();
        if let Some(hit) = lock_recovering(&self.machines).get(&(query, width)) {
            return Ok(hit);
        }
        self.count(|s| s.machines_built += 1);
        let options = CompileOptions {
            state_budget: self.config.state_budget,
            telemetry: self.config.telemetry.clone(),
        };
        let machine = compile_ucq(&self.queries[query], alphabet, options)
            .map_err(EngineError::QueryCompile)?;
        let arc = Arc::new(Mutex::new(machine));
        lock_recovering(&self.machines).insert((query, width), arc.clone());
        Ok(arc)
    }
}
