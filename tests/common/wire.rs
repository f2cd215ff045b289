//! Golden v3 wire payloads: one value per frame variant with the exact
//! bytes the codec must produce for it. The golden test pins the bytes;
//! the decoder fuzz in `wire_decoders.rs` mutates them.

use mhe::cache::{CacheConfig, Policy};
use mhe::core::metrics::SamplingMetrics;
use mhe::core::SamplingConfig;
use mhe::spacewalk::service::proto::{
    decode_coord_frame, decode_request, decode_response, decode_worker_frame, encode_coord_frame,
    encode_request, encode_response, encode_worker_frame, CoordFrame, FrontierReport,
    FrontierRequest, FrontierRow, JobOffer, Request, Response, StatsReport, WorkerFrame,
};
use mhe::spacewalk::{CacheDesign, MetricKey};
use std::sync::Arc;

/// A value of any of the four message families.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → daemon.
    Req(Request),
    /// Daemon → client.
    Resp(Response),
    /// Fleet worker → coordinator.
    Worker(WorkerFrame),
    /// Coordinator → fleet worker.
    Coord(CoordFrame),
}

impl Msg {
    /// The payload bytes the codec writes for this value.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Msg::Req(m) => encode_request(m),
            Msg::Resp(m) => encode_response(m),
            Msg::Worker(m) => encode_worker_frame(m).expect("golden frame encodes"),
            Msg::Coord(m) => encode_coord_frame(m).expect("golden frame encodes"),
        }
    }

    /// Decodes `payload` with this value's family decoder.
    pub fn decode_like(&self, payload: &[u8]) -> std::io::Result<Msg> {
        Ok(match self {
            Msg::Req(_) => Msg::Req(decode_request(payload)?),
            Msg::Resp(_) => Msg::Resp(decode_response(payload)?),
            Msg::Worker(_) => Msg::Worker(decode_worker_frame(payload)?),
            Msg::Coord(_) => Msg::Coord(decode_coord_frame(payload)?),
        })
    }
}

fn designs() -> (CacheDesign, CacheDesign, CacheDesign) {
    (
        CacheDesign { config: CacheConfig::from_bytes(1024, 1, 32), ports: 1 },
        CacheDesign {
            config: CacheConfig::from_bytes(4096, 2, 32).with_policy(Policy::Fifo),
            ports: 2,
        },
        CacheDesign {
            config: CacheConfig::from_bytes(16 << 10, 4, 64).with_policy(Policy::Random(7)),
            ports: 1,
        },
    )
}

fn sampling() -> SamplingConfig {
    SamplingConfig {
        interval_accesses: 8192,
        clusters: 12,
        warmup: 16_384,
        seed: 0x00C0_FFEE,
        histogram_sets: 64,
    }
}

fn policies() -> Vec<Policy> {
    vec![Policy::Lru, Policy::Fifo, Policy::PlruTree, Policy::Random(0xDEAD_BEEF)]
}

/// One point per `MetricKey` kind, with non-trivial `f64` bit patterns.
fn points() -> Vec<(MetricKey, f64)> {
    let app: Arc<str> = Arc::from("unepic");
    let (i, d, u) = designs();
    vec![
        (MetricKey::icache(&app, i, 1.25), 1234.5),
        (MetricKey::dcache(&app, d), f64::from_bits(0x3FF8_0000_0000_0001)),
        (MetricKey::ucache(&app, u, 2.5), 9.9e12),
        (MetricKey::proc_cycles(&app, "3221"), -0.0),
    ]
}

/// Every golden value with its pinned payload as lowercase hex.
pub fn goldens() -> Vec<(Msg, &'static str)> {
    let (i, d, u) = designs();
    let proof: [u8; 32] = std::array::from_fn(|k| k as u8);
    let nonce: [u8; 16] = std::array::from_fn(|k| 0xF0 ^ k as u8);
    let spec = "[eval]\nbenchmark = epic\n";
    vec![
        (Msg::Req(Request::Ping), "00"),
        (
            Msg::Req(Request::Frontier(FrontierRequest {
                spec_text: spec.into(),
                heuristic: true,
                sampling: Some(sampling()),
                policies: Some(policies()),
            })),
            "01180000005b6576616c5d0a62656e63686d61726b203d20657069630a010100200000000000000c000000000000000040000000000000eeffc0000000000040000000010400000000000000000000000001000000000000000002000000000000000003efbeadde00000000",
        ),
        (
            Msg::Req(Request::Frontier(FrontierRequest {
                spec_text: String::new(),
                heuristic: false,
                sampling: None,
                policies: None,
            })),
            "0100000000000000",
        ),
        (Msg::Req(Request::Stats), "02"),
        (Msg::Req(Request::Cancel), "03"),
        (
            Msg::Req(Request::Auth { proof }),
            "04000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ),
        (Msg::Resp(Response::Pong), "00"),
        (
            Msg::Resp(Response::Frontier(FrontierReport {
                sampling: Some(SamplingMetrics {
                    intervals: 10,
                    clusters: 4,
                    representative_accesses: 4000,
                    total_accesses: 80_000,
                    error_bound: 0.012345,
                }),
                rows: vec![FrontierRow {
                    processor: "3221".into(),
                    icache: i,
                    dcache: d,
                    ucache: u,
                    cost: 123.456_789,
                    time: f64::from_bits(0x40C1_0456_3027_EE60),
                }],
                hits: 7,
                computes: 13,
            })),
            "01010a000000000000000400000000000000a00f0000000000008038010000000000632827da5548893f0100000004000000333232312000000001000000080000000000000000000000000100000040000000020000000800000001000000000000000002000000400000000400000010000000030700000000000000010000000b0bee073cdd5e4060ee27305604c14007000000000000000d00000000000000",
        ),
        (
            Msg::Resp(Response::Frontier(FrontierReport {
                sampling: None,
                rows: Vec::new(),
                hits: 0,
                computes: 0,
            })),
            "01000000000000000000000000000000000000000000",
        ),
        (
            Msg::Resp(Response::Rejected { reason: "queue full".into() }),
            "020a00000071756575652066756c6c",
        ),
        (
            Msg::Resp(Response::Error { code: 4, message: "worker panic".into() }),
            "03040c000000776f726b65722070616e6963",
        ),
        (
            Msg::Resp(Response::Stats(StatsReport {
                sessions: 2,
                entries: 99,
                hits: 5,
                computes: 94,
                evictions: 3,
                version: 3,
                features: 5,
                build: "0.1.0".into(),
            })),
            "040200000000000000630000000000000005000000000000005e000000000000000300000000000000030000000500000005000000302e312e30",
        ),
        (Msg::Resp(Response::AuthChallenge { nonce }), "05f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
        (Msg::Worker(WorkerFrame::Hello), "10"),
        (Msg::Worker(WorkerFrame::NeedShard), "11"),
        (
            Msg::Worker(WorkerFrame::Points { shard: 7, points: points() }),
            "1207000000040000000006756e657069632001080100e20900000000004a93400106756e657069634002080201010000000000f83f0206756e65706963400410010307c413000070f70b02a2420306756e6570696304333232310000000000000080",
        ),
        (Msg::Worker(WorkerFrame::ShardDone { shard: 31 }), "131f000000"),
        (Msg::Worker(WorkerFrame::Heartbeat), "14"),
        (
            Msg::Worker(WorkerFrame::Auth { proof }),
            "15000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ),
        (
            Msg::Coord(CoordFrame::Job(JobOffer {
                worker_id: 3,
                spec_text: spec.into(),
                sampling: Some(sampling()),
                policies: Some(policies()),
                shard_count: 32,
            })),
            "2003000000180000005b6576616c5d0a62656e63686d61726b203d20657069630a0100200000000000000c000000000000000040000000000000eeffc0000000000040000000010400000000000000000000000001000000000000000002000000000000000003efbeadde0000000020000000",
        ),
        (
            Msg::Coord(CoordFrame::Job(JobOffer {
                worker_id: 0,
                spec_text: String::new(),
                sampling: None,
                policies: None,
                shard_count: 1,
            })),
            "200000000000000000000001000000",
        ),
        (
            Msg::Coord(CoordFrame::Assign { shard: 5, prefill: points() }),
            "2105000000040000000006756e657069632001080100e20900000000004a93400106756e657069634002080201010000000000f83f0206756e65706963400410010307c413000070f70b02a2420306756e6570696304333232310000000000000080",
        ),
        (Msg::Coord(CoordFrame::Assign { shard: 0, prefill: Vec::new() }), "210000000000000000"),
        (Msg::Coord(CoordFrame::NoMoreWork), "22"),
        (
            Msg::Coord(CoordFrame::Abort { message: "reference build failed".into() }),
            "23160000007265666572656e6365206275696c64206661696c6564",
        ),
        (Msg::Coord(CoordFrame::Wait), "24"),
        (Msg::Coord(CoordFrame::AuthChallenge { nonce }), "25f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
        (
            Msg::Coord(CoordFrame::Denied { message: "authentication failed".into() }),
            "261500000061757468656e7469636174696f6e206661696c6564",
        ),
    ]
}

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
