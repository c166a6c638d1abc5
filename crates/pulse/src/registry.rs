//! Declarative device registry: fleet-scale scenario descriptions.
//!
//! Every test and benchmark used to exercise one hand-built 16-qubit
//! library. This module is the probe-rs move applied to quantum control:
//! a *declarative* device description (qubit count, topology, vendor gate
//! set, sample rate, FDM plan) that one pipeline consumes, plus
//! programmatic generators for a realistic fleet — heavy-hex machines at
//! 27/65/127/433 qubits, surface-code patches sized by code distance, a
//! Sycamore-style grid and the Table IX exotic set.
//!
//! # Text format
//!
//! Descriptions are parsed from a deliberately simple, dependency-free
//! line format:
//!
//! ```text
//! # comments run to end of line
//! device hex-65
//!   class transmon        # transmon (default) | exotic
//!   vendor ibm            # ibm (default) | google
//!   topology heavy-hex    # line | heavy-hex | grid | surface:<distance>
//!   qubits 65             # required unless topology is surface:<d>
//!   seed 0xf1ee7065       # decimal or 0x-hex, defaults to 0xc0dec
//!   sample-rate 4.54      # optional GS/s override of the vendor DAC rate
//!   fdm 8 400             # optional: <lanes> <span-mhz> mux plan
//! end
//! ```
//!
//! A `surface:<d>` topology derives its qubit count from the code
//! distance — an unrotated distance-`d` patch is a `(2d-1) x (2d-1)`
//! qubit lattice, so `qubits`, when given, must equal `(2d-1)^2`.
//! `class exotic` devices are the fixed Table IX pulse set
//! ([`crate::exotic::table_ix_library`]); only `seed` may be configured.
//!
//! Parsing is total: hostile bytes produce a typed [`RegistryError`],
//! never a panic, and [`Registry::to_text`] → [`Registry::parse`] is an
//! exact round trip.

use crate::device::Device;
use crate::exotic;
use crate::fdm::MuxGroup;
use crate::library::PulseLibrary;
use crate::topology::Topology;
use crate::vendor::Vendor;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Upper bound on declared qubit counts (sanity stop for hostile input).
pub const MAX_QUBITS: usize = 1024;
/// Largest accepted surface-code distance (`surface:16` is 961 qubits).
pub const MAX_SURFACE_DISTANCE: usize = 16;
/// Upper bound on FDM lanes sharing one DAC.
pub const MAX_FDM_LANES: usize = 64;
/// Maximum device-name length in bytes.
pub const MAX_NAME_LEN: usize = 48;
/// Seed used when a description omits the `seed` key.
pub const DEFAULT_SEED: u64 = 0xC0DEC;
/// Qubit count of the fixed Table IX exotic set (gates act on qubits 0–3).
pub const EXOTIC_QUBITS: usize = 4;

/// What kind of pulse substrate a description builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A seeded synthetic transmon machine ([`Device`]).
    Transmon,
    /// The fixed Table IX exotic / fluxonium pulse set.
    Exotic,
}

impl DeviceClass {
    /// The text-format token for this class.
    pub fn token(&self) -> &'static str {
        match self {
            DeviceClass::Transmon => "transmon",
            DeviceClass::Exotic => "exotic",
        }
    }
}

/// Connectivity named by a description: the three [`Topology`] families
/// plus surface-code patches sized by code distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// A 1-D chain.
    Line,
    /// IBM-style heavy-hexagonal lattice.
    HeavyHex,
    /// Square grid.
    Grid,
    /// An unrotated surface-code patch of the given code distance: a
    /// `(2d-1) x (2d-1)` data+ancilla lattice whose couplings are exactly
    /// the square-grid edges on `(2d-1)^2` qubits.
    Surface {
        /// Code distance `d` (patch side is `2d-1` qubits).
        distance: usize,
    },
}

impl TopologyKind {
    /// The base connectivity family used to generate edges.
    pub fn base(&self) -> Topology {
        match self {
            TopologyKind::Line => Topology::Line,
            TopologyKind::HeavyHex => Topology::HeavyHex,
            TopologyKind::Grid | TopologyKind::Surface { .. } => Topology::Grid,
        }
    }

    /// Undirected coupling edges for an `n`-qubit device of this kind.
    pub fn edges(&self, n: usize) -> Vec<(usize, usize)> {
        self.base().edges(n)
    }

    /// The text-format token (`line`, `heavy-hex`, `grid`, `surface:<d>`).
    pub fn label(&self) -> String {
        match self {
            TopologyKind::Line => "line".into(),
            TopologyKind::HeavyHex => "heavy-hex".into(),
            TopologyKind::Grid => "grid".into(),
            TopologyKind::Surface { distance } => format!("surface:{distance}"),
        }
    }
}

/// A frequency-division-multiplexing plan: how many qubit drives share
/// one wideband DAC and over what IF span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdmSpec {
    /// Drives multiplexed per DAC channel.
    pub lanes: usize,
    /// Total intermediate-frequency span in MHz.
    pub span_mhz: f64,
}

/// One declarative device description — everything needed to rebuild the
/// device and its pulse library deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Registry-unique device name (`[A-Za-z0-9_.-]{1,48}`).
    pub name: String,
    /// Pulse substrate class.
    pub class: DeviceClass,
    /// Vendor archetype: gate set, pulse shapes, DAC defaults.
    pub vendor: Vendor,
    /// Connectivity.
    pub topology: TopologyKind,
    /// Resolved qubit count (derived for surface patches and exotic sets).
    pub qubits: usize,
    /// Calibration seed: same spec, same seed → bit-identical library.
    pub seed: u64,
    /// Optional DAC sample-rate override in GS/s.
    pub sample_rate_gs: Option<f64>,
    /// Optional FDM plan.
    pub fdm: Option<FdmSpec>,
}

impl DeviceSpec {
    /// Creates a transmon device description.
    pub fn transmon(
        name: &str,
        vendor: Vendor,
        topology: TopologyKind,
        qubits: usize,
        seed: u64,
    ) -> Self {
        let qubits = match topology {
            TopologyKind::Surface { distance } => surface_qubits(distance),
            _ => qubits,
        };
        DeviceSpec {
            name: name.to_string(),
            class: DeviceClass::Transmon,
            vendor,
            topology,
            qubits,
            seed,
            sample_rate_gs: None,
            fdm: None,
        }
    }

    /// Creates a Table IX exotic-set description.
    pub fn exotic(name: &str, seed: u64) -> Self {
        DeviceSpec {
            name: name.to_string(),
            class: DeviceClass::Exotic,
            vendor: Vendor::Ibm,
            topology: TopologyKind::Line,
            qubits: EXOTIC_QUBITS,
            seed,
            sample_rate_gs: None,
            fdm: None,
        }
    }

    /// Attaches an FDM plan (builder style).
    pub fn with_fdm(mut self, lanes: usize, span_mhz: f64) -> Self {
        self.fdm = Some(FdmSpec { lanes, span_mhz });
        self
    }

    /// Overrides the vendor DAC sample rate (builder style).
    pub fn with_sample_rate(mut self, rate_gs: f64) -> Self {
        self.sample_rate_gs = Some(rate_gs);
        self
    }

    /// Resolved qubit count.
    pub fn n_qubits(&self) -> usize {
        self.qubits
    }

    /// Checks every semantic bound the parser enforces line-by-line, for
    /// programmatically constructed specs.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if !valid_name(&self.name) {
            return Err(RegistryError::InvalidDeviceName { line: 0, name: snip(&self.name) });
        }
        let fail =
            |reason: String| Err(RegistryError::InvalidSpec { device: self.name.clone(), reason });
        if self.qubits == 0 || self.qubits > MAX_QUBITS {
            return fail(format!("qubit count {} outside 1..={MAX_QUBITS}", self.qubits));
        }
        if let TopologyKind::Surface { distance } = self.topology {
            if !(2..=MAX_SURFACE_DISTANCE).contains(&distance) {
                return fail(format!(
                    "surface distance {distance} outside 2..={MAX_SURFACE_DISTANCE}"
                ));
            }
            if self.qubits != surface_qubits(distance) {
                return Err(RegistryError::SurfaceSizeMismatch {
                    device: self.name.clone(),
                    expected: surface_qubits(distance),
                    got: self.qubits,
                });
            }
        }
        if self.class == DeviceClass::Exotic && self.qubits != EXOTIC_QUBITS {
            return fail(format!("exotic sets are fixed at {EXOTIC_QUBITS} qubits"));
        }
        if let Some(rate) = self.sample_rate_gs {
            if !rate.is_finite() || rate <= 0.0 || rate > 1000.0 {
                return fail(format!("sample rate {rate} GS/s outside (0, 1000]"));
            }
        }
        if let Some(fdm) = self.fdm {
            if fdm.lanes == 0 || fdm.lanes > MAX_FDM_LANES {
                return fail(format!("fdm lanes {} outside 1..={MAX_FDM_LANES}", fdm.lanes));
            }
            if !fdm.span_mhz.is_finite() || fdm.span_mhz < 0.0 || fdm.span_mhz > 100_000.0 {
                return fail(format!("fdm span {} MHz outside [0, 100000]", fdm.span_mhz));
            }
        }
        Ok(())
    }

    /// Builds the synthetic machine this spec describes. Returns `None`
    /// for [`DeviceClass::Exotic`] specs, which have a pulse library but
    /// no per-qubit calibrated machine model.
    pub fn build_device(&self) -> Option<Device> {
        match self.class {
            DeviceClass::Exotic => None,
            DeviceClass::Transmon => {
                let mut params = self.vendor.params();
                if let Some(rate) = self.sample_rate_gs {
                    params.sampling_rate_gs = rate;
                }
                let edges = self.topology.edges(self.qubits);
                let mut device =
                    Device::synthesize_configured(params, self.qubits, self.seed, &edges);
                device.set_name(&self.name);
                Some(device)
            }
        }
    }

    /// Builds the full pulse library for this device — the waveform-memory
    /// image the compression pipeline consumes.
    pub fn build_library(&self) -> Arc<PulseLibrary> {
        match self.class {
            DeviceClass::Exotic => Arc::new(exotic::table_ix_library(self.seed)),
            DeviceClass::Transmon => {
                self.build_device().expect("transmon specs build a device").pulse_library()
            }
        }
    }

    /// The FDM mux group this spec declares, if any.
    pub fn mux_group(&self) -> Option<MuxGroup> {
        self.fdm.map(|f| MuxGroup::evenly_spaced(f.lanes, f.span_mhz))
    }

    /// Waveform-memory read bandwidth demanded by the FDM plan in GB/s
    /// (each lane streams its own envelope before mixing), if one is
    /// declared.
    pub fn fdm_memory_bandwidth_gb(&self) -> Option<f64> {
        let params = self.vendor.params();
        let rate = self.sample_rate_gs.unwrap_or(params.sampling_rate_gs);
        self.mux_group().map(|g| g.memory_bandwidth_gb(rate, params.sample_bits))
    }

    fn write_text(&self, out: &mut String) {
        let _ = writeln!(out, "device {}", self.name);
        let _ = writeln!(out, "  class {}", self.class.token());
        if self.class == DeviceClass::Transmon {
            let _ = writeln!(out, "  vendor {}", vendor_token(self.vendor));
            let _ = writeln!(out, "  topology {}", self.topology.label());
            let _ = writeln!(out, "  qubits {}", self.qubits);
        }
        let _ = writeln!(out, "  seed 0x{:x}", self.seed);
        if let Some(rate) = self.sample_rate_gs {
            let _ = writeln!(out, "  sample-rate {rate}");
        }
        if let Some(fdm) = self.fdm {
            let _ = writeln!(out, "  fdm {} {}", fdm.lanes, fdm.span_mhz);
        }
        let _ = writeln!(out, "end");
    }
}

/// Qubit count of an unrotated distance-`d` surface patch.
pub fn surface_qubits(distance: usize) -> usize {
    let side = 2 * distance - 1;
    side * side
}

/// Everything that can go wrong parsing or assembling a description.
///
/// Line numbers are 1-based positions in the parsed text; programmatic
/// (non-text) failures report line `0`. Offending values are truncated to
/// a short prefix so hostile input cannot balloon error memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Input bytes are not UTF-8.
    NotUtf8,
    /// A key line appeared outside any `device ... end` block.
    JunkOutsideDevice {
        /// Offending line.
        line: usize,
    },
    /// A `device` line appeared inside an open block.
    NestedDevice {
        /// Offending line.
        line: usize,
    },
    /// A `device` line with no name.
    MissingDeviceName {
        /// Offending line.
        line: usize,
    },
    /// Device name is empty, too long, or uses characters outside
    /// `[A-Za-z0-9_.-]`.
    InvalidDeviceName {
        /// Offending line (0 when constructed programmatically).
        line: usize,
        /// Truncated offending name.
        name: String,
    },
    /// Extra tokens after a complete directive.
    TrailingTokens {
        /// Offending line.
        line: usize,
    },
    /// The text ended inside an open `device` block.
    UnterminatedDevice {
        /// Name of the unterminated device.
        name: String,
    },
    /// Two devices share a name.
    DuplicateDevice {
        /// Line of the second definition (0 when pushed programmatically).
        line: usize,
        /// The colliding name.
        name: String,
    },
    /// An `end` with no open `device` block.
    StrayEnd {
        /// Offending line.
        line: usize,
    },
    /// A key with too few value tokens.
    MissingValue {
        /// Offending line.
        line: usize,
        /// The key missing its value.
        key: String,
    },
    /// An unrecognized key inside a device block.
    UnknownKey {
        /// Offending line.
        line: usize,
        /// Truncated offending key.
        key: String,
    },
    /// The same key given twice in one device block.
    DuplicateKey {
        /// Line of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value token that does not parse for its key.
    InvalidValue {
        /// Offending line.
        line: usize,
        /// The key.
        key: String,
        /// Truncated offending value.
        value: String,
    },
    /// A count that parsed but violates its bound (qubits, lanes,
    /// surface distance).
    CountOutOfRange {
        /// Offending line.
        line: usize,
        /// The key.
        key: String,
        /// The out-of-range count.
        got: u64,
    },
    /// A key not permitted for the device's class (exotic sets only
    /// accept `class` and `seed`).
    KeyNotAllowed {
        /// Line where the key was set.
        line: usize,
        /// The disallowed key.
        key: String,
    },
    /// A required key was never given.
    MissingField {
        /// The device missing the field.
        device: String,
        /// The missing key.
        key: String,
    },
    /// `qubits` disagrees with the count derived from `surface:<d>`.
    SurfaceSizeMismatch {
        /// The device.
        device: String,
        /// `(2d-1)^2` for the declared distance.
        expected: usize,
        /// The declared qubit count.
        got: usize,
    },
    /// A programmatically built spec violates a semantic bound.
    InvalidSpec {
        /// The device.
        device: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NotUtf8 => write!(f, "registry text is not valid UTF-8"),
            RegistryError::JunkOutsideDevice { line } => {
                write!(f, "line {line}: directive outside any `device ... end` block")
            }
            RegistryError::NestedDevice { line } => {
                write!(f, "line {line}: `device` inside an open device block")
            }
            RegistryError::MissingDeviceName { line } => {
                write!(f, "line {line}: `device` needs a name")
            }
            RegistryError::InvalidDeviceName { line, name } => {
                write!(f, "line {line}: invalid device name {name:?}")
            }
            RegistryError::TrailingTokens { line } => {
                write!(f, "line {line}: trailing tokens after directive")
            }
            RegistryError::UnterminatedDevice { name } => {
                write!(f, "device {name:?} is missing its `end`")
            }
            RegistryError::DuplicateDevice { line, name } => {
                write!(f, "line {line}: duplicate device {name:?}")
            }
            RegistryError::StrayEnd { line } => {
                write!(f, "line {line}: `end` without an open device block")
            }
            RegistryError::MissingValue { line, key } => {
                write!(f, "line {line}: key `{key}` is missing a value")
            }
            RegistryError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            RegistryError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key `{key}` given twice")
            }
            RegistryError::InvalidValue { line, key, value } => {
                write!(f, "line {line}: invalid value {value:?} for key `{key}`")
            }
            RegistryError::CountOutOfRange { line, key, got } => {
                write!(f, "line {line}: `{key}` count {got} out of range")
            }
            RegistryError::KeyNotAllowed { line, key } => {
                write!(f, "line {line}: key `{key}` not allowed for this device class")
            }
            RegistryError::MissingField { device, key } => {
                write!(f, "device {device:?}: required key `{key}` missing")
            }
            RegistryError::SurfaceSizeMismatch { device, expected, got } => {
                write!(
                    f,
                    "device {device:?}: qubits {got} does not match surface patch size {expected}"
                )
            }
            RegistryError::InvalidSpec { device, reason } => {
                write!(f, "device {device:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered, name-indexed collection of device descriptions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<DeviceSpec>,
    index: HashMap<String, usize>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Validates and appends a description; rejects duplicate names.
    pub fn push(&mut self, spec: DeviceSpec) -> Result<(), RegistryError> {
        spec.validate()?;
        if self.index.contains_key(&spec.name) {
            return Err(RegistryError::DuplicateDevice { line: 0, name: spec.name });
        }
        self.index.insert(spec.name.clone(), self.entries.len());
        self.entries.push(spec);
        Ok(())
    }

    /// Looks a description up by name.
    pub fn get(&self, name: &str) -> Option<&DeviceSpec> {
        self.index.get(name).map(|&k| &self.entries[k])
    }

    /// Number of descriptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over descriptions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceSpec> {
        self.entries.iter()
    }

    /// Device names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|s| s.name.as_str())
    }

    /// Parses registry text. Total: any input yields `Ok` or a typed
    /// [`RegistryError`] — never a panic.
    pub fn parse(text: &str) -> Result<Self, RegistryError> {
        let mut reg = Registry::new();
        let mut current: Option<Pending> = None;
        for (k, raw) in text.lines().enumerate() {
            let line = k + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let mut tokens = stripped.split_whitespace();
            let head = tokens.next().expect("non-empty line has a first token");
            match head {
                "device" => {
                    if current.is_some() {
                        return Err(RegistryError::NestedDevice { line });
                    }
                    let name = tokens.next().ok_or(RegistryError::MissingDeviceName { line })?;
                    if tokens.next().is_some() {
                        return Err(RegistryError::TrailingTokens { line });
                    }
                    if !valid_name(name) {
                        return Err(RegistryError::InvalidDeviceName { line, name: snip(name) });
                    }
                    current = Some(Pending::new(name));
                }
                "end" => {
                    if tokens.next().is_some() {
                        return Err(RegistryError::TrailingTokens { line });
                    }
                    let pending = current.take().ok_or(RegistryError::StrayEnd { line })?;
                    let spec = pending.finish()?;
                    match reg.push(spec) {
                        Ok(()) => {}
                        Err(RegistryError::DuplicateDevice { name, .. }) => {
                            return Err(RegistryError::DuplicateDevice { line, name });
                        }
                        Err(e) => return Err(e),
                    }
                }
                key => {
                    let pending =
                        current.as_mut().ok_or(RegistryError::JunkOutsideDevice { line })?;
                    let values: Vec<&str> = tokens.collect();
                    pending.set(key, &values, line)?;
                }
            }
        }
        if let Some(pending) = current {
            return Err(RegistryError::UnterminatedDevice { name: pending.name });
        }
        Ok(reg)
    }

    /// Parses raw bytes (UTF-8 validated first).
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, RegistryError> {
        let text = std::str::from_utf8(bytes).map_err(|_| RegistryError::NotUtf8)?;
        Registry::parse(text)
    }

    /// Serializes every description back to the text format.
    /// `Registry::parse(reg.to_text())` reproduces `reg` exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, spec) in self.entries.iter().enumerate() {
            if k > 0 {
                out.push('\n');
            }
            spec.write_text(&mut out);
        }
        out
    }

    /// The built-in fleet plus the paper's named IBM machines — the
    /// registry behind [`Device::named_machine`] and the CI scenario
    /// matrix.
    pub fn builtin() -> &'static Registry {
        static BUILTIN: OnceLock<Registry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let mut reg = Registry::new();
            for spec in fleet().into_iter().chain(named_machines()) {
                reg.push(spec).expect("builtin registry entries are valid and unique");
            }
            reg
        })
    }
}

/// Heavy-hex transmon machines at the paper's scaling points: 27 (Falcon),
/// 65 (Hummingbird), 127 (Eagle) and 433 (Osprey) qubits. The ≥65-qubit
/// machines declare FDM plans — the bandwidth-multiplying configuration
/// COMPAQT targets.
pub fn heavy_hex_fleet() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::transmon("hex-27", Vendor::Ibm, TopologyKind::HeavyHex, 27, 0xF1EE_7027),
        DeviceSpec::transmon("hex-65", Vendor::Ibm, TopologyKind::HeavyHex, 65, 0xF1EE_7065)
            .with_fdm(8, 400.0),
        DeviceSpec::transmon("hex-127", Vendor::Ibm, TopologyKind::HeavyHex, 127, 0xF1EE_7127)
            .with_fdm(8, 400.0),
        DeviceSpec::transmon("hex-433", Vendor::Ibm, TopologyKind::HeavyHex, 433, 0xF1EE_7433)
            .with_fdm(16, 800.0),
    ]
}

/// Surface-code patch devices at distances 3 and 5 (25 and 81 qubits),
/// coupled exactly like `compaqt_quantum`'s unrotated patches.
pub fn surface_fleet() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::transmon(
            "surface-d3",
            Vendor::Ibm,
            TopologyKind::Surface { distance: 3 },
            0,
            0x5F3,
        ),
        DeviceSpec::transmon(
            "surface-d5",
            Vendor::Ibm,
            TopologyKind::Surface { distance: 5 },
            0,
            0x5F5,
        ),
    ]
}

/// The Table IX exotic / fluxonium pulse set as a registry device.
pub fn exotic_fleet() -> Vec<DeviceSpec> {
    vec![DeviceSpec::exotic("exotic-tableix", 0xE207)]
}

/// The full built-in fleet: heavy-hex scaling points, surface patches, a
/// Sycamore-style Google grid and the exotic set — eight devices spanning
/// both vendors, four topologies and qubit counts from 4 to 433.
pub fn fleet() -> Vec<DeviceSpec> {
    let mut specs = heavy_hex_fleet();
    specs.extend(surface_fleet());
    specs.push(DeviceSpec::transmon("sycamore-53", Vendor::Google, TopologyKind::Grid, 53, 0x51C0));
    specs.extend(exotic_fleet());
    specs
}

/// The paper's named IBM machines as registry descriptions, with the
/// exact `(qubits, seed)` pairs [`Device::named_machine`] has always
/// used — the registry route is bit-compatible with the historical
/// hand-built table.
pub fn named_machines() -> Vec<DeviceSpec> {
    [
        ("bogota", 5, 0xB060),
        ("lima", 5, 0x117A),
        ("guadalupe", 16, 0x60AD),
        ("toronto", 27, 0x7040),
        ("montreal", 27, 0xE041),
        ("mumbai", 27, 0x3BA1),
        ("hanoi", 27, 0x4A01),
        ("brooklyn", 65, 0xB400),
        ("washington", 127, 0x3A50),
    ]
    .into_iter()
    .map(|(name, n, seed)| {
        DeviceSpec::transmon(&format!("ibm_{name}"), Vendor::Ibm, TopologyKind::HeavyHex, n, seed)
    })
    .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn vendor_token(vendor: Vendor) -> &'static str {
    match vendor {
        Vendor::Ibm => "ibm",
        Vendor::Google => "google",
    }
}

/// Truncates a hostile token for inclusion in an error.
fn snip(s: &str) -> String {
    const MAX: usize = 32;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut cut = MAX;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &s[..cut])
    }
}

fn parse_u64(token: &str) -> Option<u64> {
    if let Some(hex) = token.strip_prefix("0x").or_else(|| token.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// A device block being assembled; each field remembers the line that set
/// it so class-legality errors can point at the right place.
struct Pending {
    name: String,
    class: Option<(DeviceClass, usize)>,
    vendor: Option<(Vendor, usize)>,
    topology: Option<(TopologyKind, usize)>,
    qubits: Option<(usize, usize)>,
    seed: Option<(u64, usize)>,
    sample_rate: Option<(f64, usize)>,
    fdm: Option<(FdmSpec, usize)>,
}

impl Pending {
    fn new(name: &str) -> Self {
        Pending {
            name: name.to_string(),
            class: None,
            vendor: None,
            topology: None,
            qubits: None,
            seed: None,
            sample_rate: None,
            fdm: None,
        }
    }

    fn set(&mut self, key: &str, values: &[&str], line: usize) -> Result<(), RegistryError> {
        let arity = match key {
            "class" | "vendor" | "topology" | "qubits" | "seed" | "sample-rate" => 1,
            "fdm" => 2,
            other => {
                return Err(RegistryError::UnknownKey { line, key: snip(other) });
            }
        };
        if values.len() < arity {
            return Err(RegistryError::MissingValue { line, key: key.to_string() });
        }
        if values.len() > arity {
            return Err(RegistryError::TrailingTokens { line });
        }
        let invalid = |value: &str| RegistryError::InvalidValue {
            line,
            key: key.to_string(),
            value: snip(value),
        };
        let dup = |set: bool| -> Result<(), RegistryError> {
            if set {
                Err(RegistryError::DuplicateKey { line, key: key.to_string() })
            } else {
                Ok(())
            }
        };
        match key {
            "class" => {
                dup(self.class.is_some())?;
                let class = match values[0] {
                    "transmon" => DeviceClass::Transmon,
                    "exotic" => DeviceClass::Exotic,
                    other => return Err(invalid(other)),
                };
                self.class = Some((class, line));
            }
            "vendor" => {
                dup(self.vendor.is_some())?;
                let vendor = match values[0] {
                    "ibm" => Vendor::Ibm,
                    "google" => Vendor::Google,
                    other => return Err(invalid(other)),
                };
                self.vendor = Some((vendor, line));
            }
            "topology" => {
                dup(self.topology.is_some())?;
                let kind = match values[0] {
                    "line" => TopologyKind::Line,
                    "heavy-hex" => TopologyKind::HeavyHex,
                    "grid" => TopologyKind::Grid,
                    other => {
                        let Some(dist) = other.strip_prefix("surface:") else {
                            return Err(invalid(other));
                        };
                        let d = parse_u64(dist).ok_or_else(|| invalid(other))?;
                        if !(2..=MAX_SURFACE_DISTANCE as u64).contains(&d) {
                            return Err(RegistryError::CountOutOfRange {
                                line,
                                key: "topology".to_string(),
                                got: d,
                            });
                        }
                        TopologyKind::Surface { distance: d as usize }
                    }
                };
                self.topology = Some((kind, line));
            }
            "qubits" => {
                dup(self.qubits.is_some())?;
                let n = parse_u64(values[0]).ok_or_else(|| invalid(values[0]))?;
                if n == 0 || n > MAX_QUBITS as u64 {
                    return Err(RegistryError::CountOutOfRange {
                        line,
                        key: "qubits".to_string(),
                        got: n,
                    });
                }
                self.qubits = Some((n as usize, line));
            }
            "seed" => {
                dup(self.seed.is_some())?;
                let seed = parse_u64(values[0]).ok_or_else(|| invalid(values[0]))?;
                self.seed = Some((seed, line));
            }
            "sample-rate" => {
                dup(self.sample_rate.is_some())?;
                let rate: f64 = values[0].parse().map_err(|_| invalid(values[0]))?;
                if !rate.is_finite() || rate <= 0.0 || rate > 1000.0 {
                    return Err(invalid(values[0]));
                }
                self.sample_rate = Some((rate, line));
            }
            "fdm" => {
                dup(self.fdm.is_some())?;
                let lanes = parse_u64(values[0]).ok_or_else(|| invalid(values[0]))?;
                if lanes == 0 || lanes > MAX_FDM_LANES as u64 {
                    return Err(RegistryError::CountOutOfRange {
                        line,
                        key: "fdm".to_string(),
                        got: lanes,
                    });
                }
                let span: f64 = values[1].parse().map_err(|_| invalid(values[1]))?;
                if !span.is_finite() || !(0.0..=100_000.0).contains(&span) {
                    return Err(invalid(values[1]));
                }
                self.fdm = Some((FdmSpec { lanes: lanes as usize, span_mhz: span }, line));
            }
            _ => unreachable!("arity check covers every key"),
        }
        Ok(())
    }

    fn finish(self) -> Result<DeviceSpec, RegistryError> {
        let class = self.class.map_or(DeviceClass::Transmon, |(c, _)| c);
        let seed = self.seed.map_or(DEFAULT_SEED, |(s, _)| s);
        match class {
            DeviceClass::Exotic => {
                for (set_line, key) in [
                    (self.vendor.map(|(_, l)| l), "vendor"),
                    (self.topology.map(|(_, l)| l), "topology"),
                    (self.qubits.map(|(_, l)| l), "qubits"),
                    (self.sample_rate.map(|(_, l)| l), "sample-rate"),
                    (self.fdm.map(|(_, l)| l), "fdm"),
                ] {
                    if let Some(line) = set_line {
                        return Err(RegistryError::KeyNotAllowed { line, key: key.to_string() });
                    }
                }
                Ok(DeviceSpec::exotic(&self.name, seed))
            }
            DeviceClass::Transmon => {
                let vendor = self.vendor.map_or(Vendor::Ibm, |(v, _)| v);
                let topology = self.topology.map_or_else(
                    || match vendor.params().topology {
                        Topology::Line => TopologyKind::Line,
                        Topology::HeavyHex => TopologyKind::HeavyHex,
                        Topology::Grid => TopologyKind::Grid,
                    },
                    |(t, _)| t,
                );
                let qubits = match topology {
                    TopologyKind::Surface { distance } => {
                        let derived = surface_qubits(distance);
                        if let Some((declared, _)) = self.qubits {
                            if declared != derived {
                                return Err(RegistryError::SurfaceSizeMismatch {
                                    device: self.name,
                                    expected: derived,
                                    got: declared,
                                });
                            }
                        }
                        derived
                    }
                    _ => {
                        self.qubits.map(|(n, _)| n).ok_or_else(|| RegistryError::MissingField {
                            device: self.name.clone(),
                            key: "qubits".to_string(),
                        })?
                    }
                };
                let mut spec = DeviceSpec::transmon(&self.name, vendor, topology, qubits, seed);
                spec.sample_rate_gs = self.sample_rate.map(|(r, _)| r);
                spec.fdm = self.fdm.map(|(f, _)| f);
                Ok(spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_transmon() {
        let reg = Registry::parse("device tiny\n  qubits 5\nend\n").unwrap();
        let spec = reg.get("tiny").unwrap();
        assert_eq!(spec.class, DeviceClass::Transmon);
        assert_eq!(spec.vendor, Vendor::Ibm);
        assert_eq!(spec.topology, TopologyKind::HeavyHex);
        assert_eq!(spec.n_qubits(), 5);
        assert_eq!(spec.seed, DEFAULT_SEED);
    }

    #[test]
    fn parse_full_block_with_comments() {
        let text = "# fleet file\ndevice big # eagle-class\n  class transmon\n  vendor ibm\n  \
                    topology heavy-hex\n  qubits 127\n  seed 0xAB\n  sample-rate 4.54\n  \
                    fdm 8 400\nend\n";
        let spec = Registry::parse(text).unwrap().get("big").cloned().unwrap();
        assert_eq!(spec.seed, 0xAB);
        assert_eq!(spec.sample_rate_gs, Some(4.54));
        assert_eq!(spec.fdm, Some(FdmSpec { lanes: 8, span_mhz: 400.0 }));
    }

    #[test]
    fn surface_topology_derives_qubits() {
        let reg = Registry::parse("device s\n  topology surface:3\nend\n").unwrap();
        assert_eq!(reg.get("s").unwrap().n_qubits(), 25);
    }

    #[test]
    fn surface_qubit_mismatch_is_typed() {
        let err =
            Registry::parse("device s\n  topology surface:3\n  qubits 24\nend\n").unwrap_err();
        assert_eq!(
            err,
            RegistryError::SurfaceSizeMismatch { device: "s".into(), expected: 25, got: 24 }
        );
    }

    #[test]
    fn typed_errors_carry_line_numbers() {
        assert_eq!(
            Registry::parse("qubits 5\n").unwrap_err(),
            RegistryError::JunkOutsideDevice { line: 1 }
        );
        assert_eq!(
            Registry::parse("device a\n  qubits 5\n  qubits 6\nend\n").unwrap_err(),
            RegistryError::DuplicateKey { line: 3, key: "qubits".into() }
        );
        assert_eq!(
            Registry::parse("device a\nend\ndevice a\nend\n").unwrap_err(),
            RegistryError::MissingField { device: "a".into(), key: "qubits".into() }
        );
        assert_eq!(
            Registry::parse("device a\n  qubits 2000\nend\n").unwrap_err(),
            RegistryError::CountOutOfRange { line: 2, key: "qubits".into(), got: 2000 }
        );
        assert_eq!(Registry::parse("end\n").unwrap_err(), RegistryError::StrayEnd { line: 1 });
        assert_eq!(
            Registry::parse("device a\n  qubits 5\n").unwrap_err(),
            RegistryError::UnterminatedDevice { name: "a".into() }
        );
    }

    #[test]
    fn duplicate_device_reports_second_definition() {
        let text = "device a\n  qubits 5\nend\ndevice a\n  qubits 5\nend\n";
        assert_eq!(
            Registry::parse(text).unwrap_err(),
            RegistryError::DuplicateDevice { line: 6, name: "a".into() }
        );
    }

    #[test]
    fn exotic_rejects_transmon_keys() {
        let err = Registry::parse("device e\n  class exotic\n  qubits 4\nend\n").unwrap_err();
        assert_eq!(err, RegistryError::KeyNotAllowed { line: 3, key: "qubits".into() });
        let ok = Registry::parse("device e\n  class exotic\n  seed 7\nend\n").unwrap();
        assert_eq!(ok.get("e").unwrap().n_qubits(), EXOTIC_QUBITS);
    }

    #[test]
    fn non_utf8_is_typed() {
        assert_eq!(Registry::parse_bytes(&[0x64, 0xFF, 0xFE]).unwrap_err(), RegistryError::NotUtf8);
    }

    #[test]
    fn builtin_round_trips_through_text() {
        let builtin = Registry::builtin();
        let reparsed = Registry::parse(&builtin.to_text()).unwrap();
        assert_eq!(builtin.len(), reparsed.len());
        for spec in builtin.iter() {
            assert_eq!(reparsed.get(&spec.name), Some(spec), "{}", spec.name);
        }
    }

    #[test]
    fn builtin_meets_fleet_floor() {
        let reg = Registry::builtin();
        assert!(reg.len() >= 6);
        let hex_big = reg
            .iter()
            .filter(|s| s.topology == TopologyKind::HeavyHex && s.n_qubits() >= 65)
            .count();
        assert!(hex_big >= 2, "need >=2 heavy-hex devices at >=65 qubits");
        assert!(
            reg.iter().any(|s| matches!(s.topology, TopologyKind::Surface { .. })),
            "need a surface patch"
        );
        assert!(reg.iter().any(|s| s.class == DeviceClass::Exotic));
    }

    #[test]
    fn specs_build_libraries() {
        let reg = Registry::builtin();
        let small = reg.get("ibm_bogota").unwrap();
        let lib = small.build_library();
        // X + SX + Measure per qubit, CX per directed pair (4 line-ish edges).
        assert!(lib.len() > 5 * 3);
        let exotic = reg.get("exotic-tableix").unwrap();
        assert_eq!(exotic.build_library().len(), 7);
        assert!(exotic.build_device().is_none());
    }

    #[test]
    fn built_device_carries_spec_name_and_size() {
        let spec = Registry::builtin().get("surface-d3").unwrap();
        let device = spec.build_device().unwrap();
        assert_eq!(device.name(), "surface-d3");
        assert_eq!(device.n_qubits(), 25);
    }

    #[test]
    fn sample_rate_override_changes_waveform_lengths() {
        let base = DeviceSpec::transmon("a", Vendor::Ibm, TopologyKind::Line, 2, 1);
        let slow = base.clone().with_sample_rate(1.0);
        let lib_base = base.build_library();
        let lib_slow = slow.build_library();
        assert!(lib_base.total_samples() > lib_slow.total_samples());
    }

    #[test]
    fn fdm_bandwidth_scales_with_lanes() {
        let spec = Registry::builtin().get("hex-433").unwrap();
        let bw = spec.fdm_memory_bandwidth_gb().unwrap();
        let per_qubit = Vendor::Ibm.params().bandwidth_per_qubit_gb();
        assert!((bw / per_qubit - 16.0).abs() < 1e-9, "16 lanes multiply demand 16x");
    }

    #[test]
    fn push_rejects_invalid_specs() {
        let mut reg = Registry::new();
        let bad = DeviceSpec::transmon("bad name!", Vendor::Ibm, TopologyKind::Line, 4, 1);
        assert!(matches!(reg.push(bad), Err(RegistryError::InvalidDeviceName { .. })));
        let mut huge = DeviceSpec::transmon("huge", Vendor::Ibm, TopologyKind::Line, 4, 1);
        huge.qubits = MAX_QUBITS + 1;
        assert!(matches!(reg.push(huge), Err(RegistryError::InvalidSpec { .. })));
        let ok = DeviceSpec::transmon("ok", Vendor::Ibm, TopologyKind::Line, 4, 1);
        reg.push(ok.clone()).unwrap();
        assert_eq!(
            reg.push(ok),
            Err(RegistryError::DuplicateDevice { line: 0, name: "ok".into() })
        );
    }

    #[test]
    fn snip_bounds_error_payloads() {
        let long = "x".repeat(500);
        let err = Registry::parse(&format!("device a\n  {long} 1\nend\n")).unwrap_err();
        if let RegistryError::UnknownKey { key, .. } = err {
            assert!(key.len() <= 40);
        } else {
            panic!("expected UnknownKey, got {err:?}");
        }
    }

    #[test]
    fn errors_display_without_panicking() {
        let errs = [
            RegistryError::NotUtf8,
            RegistryError::UnterminatedDevice { name: "a".into() },
            RegistryError::CountOutOfRange { line: 3, key: "qubits".into(), got: 9999 },
            RegistryError::InvalidSpec { device: "d".into(), reason: "r".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
