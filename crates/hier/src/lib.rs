//! # fullview-hier
//!
//! The certificate tier of `fullview-core`'s sweep plan, measured on its
//! own. The quadtree prover lives in `fullview-core`, where every sweep
//! tries its certificates through [`fullview_core::SweepPlan`] whenever
//! they pay; this crate only re-exports the forced entry point (a
//! certificate attempt on every tile, never switched off) under its
//! historical name, for benchmarks that time each tier separately.
//!
//! ```
//! use fullview_core::EffectiveAngle;
//! use fullview_geom::{Angle, Point, Torus, UnitGrid};
//! use fullview_model::{Camera, CameraNetwork, GroupId, SensorSpec};
//! use fullview_hier::evaluate_grid_hier;
//! use std::f64::consts::PI;
//!
//! let torus = Torus::unit();
//! let spec = SensorSpec::new(0.2, PI)?;
//! // Deterministic low-discrepancy scatter of 40 cameras.
//! let cams: Vec<Camera> = (0..40)
//!     .map(|i| {
//!         let t = i as f64;
//!         let pos = Point::new((t * 0.618_034).fract(), (t * 0.381_966).fract());
//!         Camera::new(pos, Angle::new(t), spec, GroupId(0))
//!     })
//!     .collect();
//! let net = CameraNetwork::new(torus, cams);
//! let theta = EffectiveAngle::new(PI / 3.0)?;
//! let grid = UnitGrid::new(torus, 48);
//! let (report, stats) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
//! assert_eq!(report, fullview_core::evaluate_grid(&net, theta, &grid, Angle::ZERO));
//! assert_eq!(stats.points_proved + stats.points_visited, 48 * 48);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use fullview_core::{evaluate_grid_certified as evaluate_grid_hier, ProverStats};
