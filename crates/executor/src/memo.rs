//! The profile-layer memo: each fill-job *type* is profiled once per
//! device. See [`FillProfiles`].

use std::collections::BTreeMap;
use std::sync::Arc;

use pipefill_device::DeviceSpec;
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_sim_core::SimDuration;

use crate::config::ExecutorConfig;
use crate::job::FillJobSpec;
use crate::plan::{plan_best, BubbleSlot, ExecutionPlan};
use crate::profile::exclusive_throughput;

/// Handle to a bubble geometry interned in one [`FillProfiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeometryId(usize);

/// Interning key: the slots plus the executor tuning as exact bits.
type GeometryKey = (Vec<BubbleSlot>, u64, u64, SimDuration);

/// One interned geometry and the plans made on it so far.
#[derive(Debug)]
struct Geometry {
    slots: Vec<BubbleSlot>,
    exec: ExecutorConfig,
    /// `None` caches "no configuration fits".
    plans: Vec<(ModelId, JobKind, Option<Arc<ExecutionPlan>>)>,
}

/// Memo of exclusive throughputs and Algorithm-1 plans for one device.
///
/// §5.3 sizes a fill job by dividing its GPU-hours by the isolated max
/// throughput of its job type, and §4.3 profiles each type once per
/// configuration. Both answers depend only on the job's (model, kind),
/// the device and, for plans, the bubble geometry and executor tuning;
/// never on the job's sample count or identity. The memo holds exactly
/// those answers for one [`DeviceSpec`]:
///
/// * the exclusive throughput of each (model, kind), computed by
///   [`exclusive_throughput`] on first use;
/// * the Algorithm-1 plan of each (model, kind) on each interned bubble
///   geometry (bubble slots + [`ExecutorConfig`]), computed by
///   [`plan_best`] on first use and shared as an [`Arc`].
///
/// It keeps scalars and plans only. The profile menus the two functions
/// walk along the way (one linearized graph per batch size × technique)
/// are not retained: each call shares one per-batch layer-cost table
/// across that batch's techniques and drops it when the answer is known.
/// Retaining menus across calls costs far more memory than recomputing
/// the handful of types a run draws.
///
/// Lookups scan short vectors (a run draws at most a few job types) and
/// geometries are interned through an ordered map, so nothing here
/// observes a hasher's order.
///
/// # Example
///
/// ```
/// use pipefill_device::{Bytes, DeviceSpec};
/// use pipefill_executor::{ExecutorConfig, FillProfiles};
/// use pipefill_model_zoo::{JobKind, ModelId};
/// use pipefill_sim_core::SimDuration;
///
/// let mut profiles = FillProfiles::new(DeviceSpec::v100());
/// let slots = [(SimDuration::from_secs(1), Bytes::from_gib_f64(4.5))];
/// let g = profiles.geometry(slots, &ExecutorConfig::default());
/// let plan = profiles.plan(ModelId::BertBase, JobKind::BatchInference, g);
/// assert!(plan.is_some());
/// // 0.5 GPU-hours of BERT inference, sized by exclusive throughput.
/// let samples = profiles.samples_for(ModelId::BertBase, JobKind::BatchInference, 0.5);
/// assert!(samples.is_some_and(|s| s > 1));
/// ```
#[derive(Debug)]
pub struct FillProfiles {
    device: DeviceSpec,
    /// Exclusive throughput per job type (`None`: fits no configuration).
    throughputs: Vec<(ModelId, JobKind, Option<f64>)>,
    geometry_ids: BTreeMap<GeometryKey, GeometryId>,
    geometries: Vec<Geometry>,
}

impl FillProfiles {
    /// An empty memo bound to `device`.
    pub fn new(device: DeviceSpec) -> Self {
        FillProfiles {
            device,
            throughputs: Vec::new(),
            geometry_ids: BTreeMap::new(),
            geometries: Vec::new(),
        }
    }

    /// Index of the memo bound to `device` in `memos`, appending a fresh
    /// one if none is: the per-device memo set of a heterogeneous run.
    pub fn index_for(memos: &mut Vec<FillProfiles>, device: &DeviceSpec) -> usize {
        memos
            .iter()
            .position(|m| m.device == *device)
            .unwrap_or_else(|| {
                memos.push(FillProfiles::new(device.clone()));
                memos.len() - 1
            })
    }

    /// The device every answer is for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The isolated max throughput (samples/s) of a `kind` job on `model`
    /// over the default batch-size menu — [`exclusive_throughput`],
    /// computed once per job type.
    pub fn exclusive_throughput(&mut self, model: ModelId, kind: JobKind) -> Option<f64> {
        if let Some(&(_, _, t)) = self
            .throughputs
            .iter()
            .find(|&&(m, k, _)| m == model && k == kind)
        {
            return t;
        }
        let graph = model.build();
        let t = exclusive_throughput(
            &graph,
            kind,
            &self.device,
            &FillJobSpec::default_batch_sizes(),
        )
        .map(|(t, _)| t);
        self.throughputs.push((model, kind, t));
        t
    }

    /// Samples a `gpu_hours` job of this type must process (§5.3:
    /// GPU-hours ÷ isolated max throughput), at least 1. `None` if the
    /// type fits no configuration on this device.
    pub fn samples_for(&mut self, model: ModelId, kind: JobKind, gpu_hours: f64) -> Option<u64> {
        let throughput = self.exclusive_throughput(model, kind)?;
        let samples = (gpu_hours * 3600.0 * throughput).round() as u64;
        Some(samples.max(1))
    }

    /// Interns a bubble geometry — the fillable slots of one stage and
    /// the executor tuning that packs them. Equal geometries get the same
    /// id, so they share every plan.
    pub fn geometry(
        &mut self,
        slots: impl IntoIterator<Item = BubbleSlot>,
        exec: &ExecutorConfig,
    ) -> GeometryId {
        let slots: Vec<BubbleSlot> = slots.into_iter().collect();
        let key = (
            slots,
            exec.fill_fraction.to_bits(),
            exec.cold_start_factor.to_bits(),
            exec.switch_overhead,
        );
        if let Some(&id) = self.geometry_ids.get(&key) {
            return id;
        }
        let id = GeometryId(self.geometries.len());
        self.geometries.push(Geometry {
            slots: key.0.clone(),
            exec: *exec,
            plans: Vec::new(),
        });
        self.geometry_ids.insert(key, id);
        id
    }

    /// Distinct geometries interned so far.
    pub fn geometry_count(&self) -> usize {
        self.geometries.len()
    }

    /// The best plan for a `kind` job on `model` in `geometry` —
    /// [`plan_best`] over the default batch-size menu, run once per
    /// (type, geometry). `None` if the geometry has no slots or no
    /// configuration fits. `geometry` must come from this memo's
    /// [`geometry`](Self::geometry).
    ///
    /// # Panics
    ///
    /// Panics (through [`ExecutorConfig::validate`]) if the geometry's
    /// tuning is invalid, e.g. a zero fill fraction: callers must not plan
    /// for jobs that do not fill.
    pub fn plan(
        &mut self,
        model: ModelId,
        kind: JobKind,
        geometry: GeometryId,
    ) -> Option<&Arc<ExecutionPlan>> {
        let g = &mut self.geometries[geometry.0];
        let i = match g
            .plans
            .iter()
            .position(|&(m, k, _)| m == model && k == kind)
        {
            Some(i) => i,
            None => {
                let plan = if g.slots.is_empty() {
                    None
                } else {
                    // Plans depend only on (model, kind, geometry), not on
                    // a job's sample count: plan for a nominal job.
                    let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
                    plan_best(&probe, &g.slots, &self.device, &g.exec)
                        .ok()
                        .map(Arc::new)
                };
                g.plans.push((model, kind, plan));
                g.plans.len() - 1
            }
        };
        g.plans[i].2.as_ref()
    }

    /// Job types planned on `geometry` so far (feasible or not).
    pub fn planned_types(&self, geometry: GeometryId) -> usize {
        self.geometries[geometry.0].plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_device::Bytes;

    fn slots(spec: &[(u64, f64)]) -> Vec<BubbleSlot> {
        spec.iter()
            .map(|&(ms, gib)| (SimDuration::from_millis(ms), Bytes::from_gib_f64(gib)))
            .collect()
    }

    const TYPES: [(ModelId, JobKind); 4] = [
        (ModelId::BertBase, JobKind::Training),
        (ModelId::BertBase, JobKind::BatchInference),
        (ModelId::EfficientNet, JobKind::Training),
        (ModelId::XlmRobertaXl, JobKind::BatchInference),
    ];

    #[test]
    fn throughput_matches_exclusive_throughput() {
        for device in [DeviceSpec::v100(), DeviceSpec::h100()] {
            let mut memo = FillProfiles::new(device.clone());
            for (model, kind) in TYPES {
                let direct = exclusive_throughput(
                    &model.build(),
                    kind,
                    &device,
                    &FillJobSpec::default_batch_sizes(),
                )
                .map(|(t, _)| t.to_bits());
                assert_eq!(
                    memo.exclusive_throughput(model, kind).map(f64::to_bits),
                    direct
                );
                // Second ask is served from the memo, same bits.
                assert_eq!(
                    memo.exclusive_throughput(model, kind).map(f64::to_bits),
                    direct
                );
            }
            assert_eq!(memo.throughputs.len(), TYPES.len());
        }
    }

    #[test]
    fn plans_match_plan_best_and_are_shared() {
        let device = DeviceSpec::v100();
        let exec = ExecutorConfig::default();
        let mut memo = FillProfiles::new(device.clone());
        let cycle = slots(&[(1900, 4.0), (1000, 4.5)]);
        let a = memo.geometry(cycle.iter().copied(), &exec);
        let b = memo.geometry(cycle.iter().copied(), &exec);
        assert_eq!(a, b, "equal geometries intern to one id");
        for (model, kind) in TYPES {
            let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
            let direct = plan_best(&probe, &cycle, &device, &exec).ok();
            let first = memo.plan(model, kind, a).cloned();
            assert_eq!(first.as_deref(), direct.as_ref());
            let again = memo.plan(model, kind, b).cloned();
            if let (Some(x), Some(y)) = (&first, &again) {
                assert!(Arc::ptr_eq(x, y), "a memoized plan is shared, not rebuilt");
            }
        }
        assert_eq!(memo.planned_types(a), TYPES.len());
    }

    #[test]
    fn tuning_is_part_of_the_geometry() {
        let mut memo = FillProfiles::new(DeviceSpec::v100());
        let cycle = slots(&[(500, 4.0)]);
        let base = ExecutorConfig::default();
        let a = memo.geometry(cycle.iter().copied(), &base);
        let b = memo.geometry(cycle.iter().copied(), &base.with_fill_fraction(0.5));
        let c = memo.geometry(cycle[..0].iter().copied(), &base);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(memo.geometry_count(), 3);
        // An empty cycle plans to nothing without running the planner.
        assert!(memo
            .plan(ModelId::BertBase, JobKind::BatchInference, c)
            .is_none());
    }

    #[test]
    fn samples_follow_gpu_hours() {
        let mut memo = FillProfiles::new(DeviceSpec::v100());
        let t = memo
            .exclusive_throughput(ModelId::BertBase, JobKind::BatchInference)
            .expect("BERT fits a V100");
        let s = memo
            .samples_for(ModelId::BertBase, JobKind::BatchInference, 0.25)
            .expect("BERT fits a V100");
        assert_eq!(s, ((0.25 * 3600.0 * t).round() as u64).max(1));
        assert_eq!(
            memo.samples_for(ModelId::BertBase, JobKind::BatchInference, 0.0),
            Some(1)
        );
    }

    #[test]
    fn index_for_keeps_one_memo_per_device() {
        let mut memos = Vec::new();
        let v = FillProfiles::index_for(&mut memos, &DeviceSpec::v100());
        let h = FillProfiles::index_for(&mut memos, &DeviceSpec::h100());
        assert_eq!(FillProfiles::index_for(&mut memos, &DeviceSpec::v100()), v);
        assert_ne!(v, h);
        assert_eq!(memos.len(), 2);
        assert_eq!(memos[h].device(), &DeviceSpec::h100());
    }
}
