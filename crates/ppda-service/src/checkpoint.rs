//! Feature-gated checkpoint/restore for a quiesced [`CampaignEngine`].
//!
//! A checkpoint captures, per deployment: the full [`DeploymentSpec`]
//! (name, topology, protocol configuration, protocol variant, fault
//! plan, seed and clock mode), the round-clock position (rounds
//! completed), and the merged [`CampaignAccumulator`]. Restoring
//! recompiles every deployment from its spec and resumes the clocks, so
//! a restored engine's subsequent rounds are **byte-identical** to the
//! rounds an uninterrupted engine would have run (round outcomes are
//! pure functions of their `(round_id, seed)` coordinates).
//!
//! The vendored serde subset has no derive macro, so the format is a
//! hand-rolled versioned little-endian blob, embedding the byte formats
//! [`Topology`] and [`CampaignAccumulator`] already define for their own
//! serde impls. [`Checkpoint`] implements `Serialize`/`Deserialize` as a
//! single byte string, matching the repo-wide convention.

use std::fmt;

use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{
    ChurnSchedule, FaultPlan, IntegrityMode, MembershipEvent, MembershipEventKind, MpcError,
    ProtocolConfig, ProtocolKind, TrickleConfig,
};
use ppda_radio::FadingProfile;
use ppda_topology::Topology;
use serde::{Deserialize, Deserializer, Error as _, Serialize, Serializer};

use crate::engine::{CampaignEngine, ClockMode, DeploymentSpec, EngineError};

/// Current blob version. Version 2 appended the membership event
/// stream and Trickle parameters to every spec; version 3 appended the
/// config's fragmentation flag; version 4 appended the config's
/// integrity mode. Older blobs (no membership / no flags) still
/// restore.
const FORMAT_VERSION: u8 = 4;
const OLDEST_SUPPORTED_VERSION: u8 = 1;

/// The largest worker pool a checkpoint may restore. The blob's pool
/// geometry is untrusted input, and the engine allocates per-worker state
/// up front, so a corrupt count must fail as a typed error rather than
/// abort the process on allocation.
const MAX_RESTORED_WORKERS: u64 = 1024;

/// A serialized, self-contained image of a quiesced engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    blob: Vec<u8>,
}

/// Why a checkpoint could not be taken or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The engine refused to quiesce (e.g. it is tainted by an earlier
    /// failed advance, so its round streams have holes).
    Engine(EngineError),
    /// The blob is malformed (truncated, wrong version, bad embedded
    /// topology or accumulator).
    Format(String),
    /// A restored spec no longer compiles into a deployment.
    Compile(MpcError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Engine(e) => write!(f, "engine cannot checkpoint: {e}"),
            CheckpointError::Format(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Compile(e) => write!(f, "restored spec fails to compile: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Engine(e) => Some(e),
            CheckpointError::Format(_) => None,
            CheckpointError::Compile(e) => Some(e),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() < n {
            return Err(CheckpointError::Format("checkpoint truncated".into()));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > self.bytes.len() as u64 {
            return Err(CheckpointError::Format("checkpoint truncated".into()));
        }
        Ok(n as usize)
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.len()?;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        String::from_utf8(self.bytes_field()?.to_vec())
            .map_err(|_| CheckpointError::Format("checkpoint string is not UTF-8".into()))
    }
}

fn encode_spec(out: &mut Vec<u8>, spec: &DeploymentSpec) {
    put_bytes(out, spec.name.as_bytes());
    put_bytes(out, &spec.topology.to_blob());
    out.push(match spec.protocol {
        ProtocolKind::S3 => 3,
        ProtocolKind::S4 => 4,
    });
    match spec.clock {
        ClockMode::Epoch => out.push(0),
        ClockMode::SeedStripe { round_id } => {
            out.push(1);
            put_u32(out, round_id);
        }
    }
    put_u64(out, spec.seed);

    let c = &spec.config;
    put_u64(out, c.n_nodes as u64);
    put_u64(out, c.sources.len() as u64);
    for &s in &c.sources {
        out.extend_from_slice(&s.to_le_bytes());
    }
    put_u64(out, c.degree as u64);
    put_u32(out, c.ntx_sharing);
    put_u32(out, c.ntx_reconstruction);
    put_u32(out, c.full_coverage_ntx);
    put_u64(out, c.aggregator_redundancy as u64);
    put_u64(out, c.tag_len as u64);
    out.extend_from_slice(&c.master_key);
    put_f64(out, c.link_threshold);
    put_u32(out, c.round_id);
    put_u64(out, c.max_reading);
    put_f64(out, c.fading.calm_prob);
    put_f64(out, c.fading.mild_prob);
    put_f64(out, c.fading.mild_range.0);
    put_f64(out, c.fading.mild_range.1);
    put_f64(out, c.fading.harsh_range.0);
    put_f64(out, c.fading.harsh_range.1);
    put_u64(out, c.batch as u64);

    let f = &spec.faults;
    put_u64(out, f.seed);
    put_f64(out, f.loss);
    put_f64(out, f.extra_attenuation_db);
    put_f64(out, f.dropout);
    put_f64(out, f.delay);
    put_f64(out, f.duplicate);
    put_u64(out, f.churn.windows().len() as u64);
    for w in f.churn.windows() {
        out.extend_from_slice(&w.node.to_le_bytes());
        put_u32(out, w.from_round);
        put_u32(out, w.until_round);
    }

    // Version 2: the online-membership event stream plus the Trickle
    // parameters that govern its dissemination.
    put_u64(out, spec.membership.len() as u64);
    for ev in &spec.membership {
        put_u32(out, ev.round);
        out.extend_from_slice(&ev.node.to_le_bytes());
        out.push(match ev.kind {
            MembershipEventKind::Join => 0,
            MembershipEventKind::Leave => 1,
            MembershipEventKind::Crash => 2,
            MembershipEventKind::Rejoin => 3,
        });
    }
    let t = &spec.trickle;
    put_u32(out, t.i_min);
    put_u32(out, t.doublings);
    put_u32(out, t.k);
    put_u32(out, t.crash_detection);

    // Version 3: the fragmentation flag (wide lane batches span frames).
    out.push(u8::from(c.fragmentation));

    // Version 4: the integrity mode (transcript-committed sums).
    out.push(u8::from(c.integrity.is_on()));
}

fn decode_spec(r: &mut Reader<'_>, version: u8) -> Result<DeploymentSpec, CheckpointError> {
    let name = r.string()?;
    let topology = Topology::from_blob(r.bytes_field()?).map_err(CheckpointError::Format)?;
    let protocol = match r.u8()? {
        3 => ProtocolKind::S3,
        4 => ProtocolKind::S4,
        other => {
            return Err(CheckpointError::Format(format!(
                "unknown protocol tag {other}"
            )))
        }
    };
    let clock = match r.u8()? {
        0 => ClockMode::Epoch,
        1 => ClockMode::SeedStripe { round_id: r.u32()? },
        other => {
            return Err(CheckpointError::Format(format!(
                "unknown clock tag {other}"
            )))
        }
    };
    let seed = r.u64()?;

    let n_nodes = r.u64()? as usize;
    let n_sources = r.len()?; // count ≤ remaining bytes, so a corrupt
                              // prefix fails cleanly (u16 reads re-check)
    let sources = (0..n_sources)
        .map(|_| r.u16())
        .collect::<Result<Vec<u16>, _>>()?;
    let degree = r.u64()? as usize;
    let ntx_sharing = r.u32()?;
    let ntx_reconstruction = r.u32()?;
    let full_coverage_ntx = r.u32()?;
    let aggregator_redundancy = r.u64()? as usize;
    let tag_len = r.u64()? as usize;
    let mut master_key = [0u8; 16];
    master_key.copy_from_slice(r.take(16)?);
    let link_threshold = r.f64()?;
    let round_id = r.u32()?;
    let max_reading = r.u64()?;
    let fading = FadingProfile {
        calm_prob: r.f64()?,
        mild_prob: r.f64()?,
        mild_range: (r.f64()?, r.f64()?),
        harsh_range: (r.f64()?, r.f64()?),
    };
    let batch = r.u64()? as usize;
    let mut config = ProtocolConfig {
        n_nodes,
        sources,
        degree,
        ntx_sharing,
        ntx_reconstruction,
        full_coverage_ntx,
        aggregator_redundancy,
        tag_len,
        master_key,
        link_threshold,
        round_id,
        max_reading,
        fading,
        batch,
        // Version ≤ 2 blobs predate the fragmenting transport: every
        // batch they could compile fits one frame, so the flag is off.
        fragmentation: false,
        // Version ≤ 3 blobs predate the integrity subsystem, whose off
        // mode is byte-identical to what those engines ran.
        integrity: IntegrityMode::Off,
    };

    let fault_seed = r.u64()?;
    let loss = r.f64()?;
    let extra_attenuation_db = r.f64()?;
    let dropout = r.f64()?;
    let delay = r.f64()?;
    let duplicate = r.f64()?;
    let n_windows = r.u64()? as usize;
    let mut windows = Vec::with_capacity(n_windows.min(1024));
    for _ in 0..n_windows {
        let node = r.u16()?;
        let from = r.u32()?;
        let until = r.u32()?;
        windows.push((node, from, until));
    }
    let faults = FaultPlan {
        seed: fault_seed,
        loss,
        extra_attenuation_db,
        dropout,
        delay,
        duplicate,
        churn: ChurnSchedule::from_windows(windows),
    };

    // Version-1 blobs predate online membership: restore them as
    // membership-free specs with the default Trickle parameters.
    let mut membership = Vec::new();
    let mut trickle = TrickleConfig::default();
    if version >= 2 {
        let n_events = r.u64()? as usize;
        membership.reserve(n_events.min(4096));
        for _ in 0..n_events {
            let round = r.u32()?;
            let node = r.u16()?;
            let kind = match r.u8()? {
                0 => MembershipEventKind::Join,
                1 => MembershipEventKind::Leave,
                2 => MembershipEventKind::Crash,
                3 => MembershipEventKind::Rejoin,
                other => {
                    return Err(CheckpointError::Format(format!(
                        "unknown membership event tag {other}"
                    )))
                }
            };
            membership.push(MembershipEvent { round, node, kind });
        }
        trickle = TrickleConfig {
            i_min: r.u32()?,
            doublings: r.u32()?,
            k: r.u32()?,
            crash_detection: r.u32()?,
        };
    }
    if version >= 3 {
        config.fragmentation = r.u8()? != 0;
    }
    if version >= 4 {
        config.integrity = if r.u8()? != 0 {
            IntegrityMode::On
        } else {
            IntegrityMode::Off
        };
    }
    // The literal above skipped the builder, so check its invariants here:
    // a corrupt config must not restore cleanly and then fail (or abort)
    // on the first round.
    config
        .validate()
        .map_err(|e| CheckpointError::Format(format!("invalid protocol config: {e}")))?;

    Ok(DeploymentSpec {
        name,
        topology,
        config,
        protocol,
        faults,
        seed,
        clock,
        membership,
        trickle,
    })
}

impl Checkpoint {
    /// Capture a quiesced engine: every deployment's spec, round-clock
    /// position and merged metrics, plus the engine's pool geometry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Engine`] when the engine is tainted by an
    /// earlier failed advance (its round streams have holes that a
    /// restore could not reproduce).
    pub fn capture(engine: &CampaignEngine) -> Result<Checkpoint, CheckpointError> {
        let state = engine.quiesced_state().map_err(CheckpointError::Engine)?;
        let mut blob = Vec::new();
        blob.push(FORMAT_VERSION);
        put_u64(&mut blob, engine.workers() as u64);
        put_u64(&mut blob, engine.chunk());
        put_u64(&mut blob, state.len() as u64);
        for (spec, completed, metrics) in &state {
            encode_spec(&mut blob, spec);
            put_u64(&mut blob, *completed);
            put_bytes(&mut blob, &metrics.to_blob());
        }
        Ok(Checkpoint { blob })
    }

    /// Recompile every deployment and resume the fleet where it left
    /// off, with the checkpointed pool geometry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] on a malformed blob — including a
    /// worker count outside `1..=1024`, a chunk of 0 and a protocol
    /// config that fails [`ProtocolConfig::validate`];
    /// [`CheckpointError::Compile`] when a restored spec no longer
    /// builds.
    pub fn restore(&self) -> Result<CampaignEngine, CheckpointError> {
        let mut r = Reader { bytes: &self.blob };
        let version = r.u8()?;
        if !(OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::Format(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let workers = r.u64()?;
        if !(1..=MAX_RESTORED_WORKERS).contains(&workers) {
            return Err(CheckpointError::Format(format!(
                "worker count {workers} outside 1..={MAX_RESTORED_WORKERS}"
            )));
        }
        let chunk = r.u64()?;
        if chunk == 0 {
            return Err(CheckpointError::Format(
                "chunk of 0 rounds cannot be scheduled".into(),
            ));
        }
        let n = r.u64()? as usize;
        let mut specs = Vec::with_capacity(n.min(4096));
        let mut progress = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let spec = decode_spec(&mut r, version)?;
            let completed = r.u64()?;
            let metrics = CampaignAccumulator::from_blob(r.bytes_field()?)
                .map_err(CheckpointError::Format)?;
            specs.push(spec);
            progress.push((completed, metrics));
        }
        if !r.bytes.is_empty() {
            return Err(CheckpointError::Format(
                "trailing bytes after checkpoint".into(),
            ));
        }
        let mut engine = CampaignEngine::builder()
            .workers(workers as usize)
            .chunk(chunk)
            .deployments(specs)
            .build()
            .map_err(CheckpointError::Compile)?;
        engine.restore_progress(progress);
        Ok(engine)
    }

    /// The raw checkpoint bytes (e.g. to write to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.blob
    }

    /// Wrap raw bytes read back from storage. Validation happens on
    /// [`restore`](Checkpoint::restore).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Checkpoint {
        Checkpoint { blob: bytes.into() }
    }
}

impl Serialize for Checkpoint {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.blob)
    }
}

impl<'de> Deserialize<'de> for Checkpoint {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let blob = Vec::<u8>::deserialize(deserializer)?;
        // Validate the header eagerly so a wrong payload fails at
        // deserialization, not at a later restore.
        let supported = blob
            .first()
            .is_some_and(|&v| (OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&v));
        if !supported {
            return Err(D::Error::custom("not a campaign checkpoint"));
        }
        Ok(Checkpoint { blob })
    }
}
