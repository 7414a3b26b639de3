//! Crash torture: a configuration of the schedule explorer
//! (`tests/common/explorer.rs`). Eight rounds of 800 random one-step
//! transactions over 300 keys (a tenth of them aborted), with the
//! whole maintenance pass inline every 16 commits; each round is shaken
//! by every actor and a pack (and, every other round, a checkpoint)
//! before the power is cut. The explorer checks every step from the shaking
//! on; after every reboot the database must be what the model's
//! acknowledged commits allow, and the next round continues on the
//! recovered engine.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use btrim::{Actor, EngineConfig, EngineMode};

use common::explorer::{config, Explorer, Profile, Step::*};

#[test]
fn database_equals_model_across_repeated_crashes() {
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    let mut ex = Explorer::new(EngineConfig {
        imrs_budget: 1024 * 1024,
        buffer_frames: 512,
        // The whole maintenance pass runs inline every 16 commits.
        maintenance_interval_txns: 16,
        ..config(EngineMode::IlmOn)
    });
    let profile = Profile {
        steps: 800,
        keys: 300,
        max_pad: 16,
        cuts: false,
        clients: 1,
    };
    for round in 0..8 {
        // The round runs unchecked; everything after it, checked.
        ex.checked = false;
        for _ in 0..profile.steps {
            let step = ex.draw_client(&mut rng, profile);
            let abort = rng.gen_bool(0.1);
            ex.run(step);
            ex.run(if abort { Abort(0) } else { Commit(0) });
        }
        ex.checked = true;
        ex.run_all(Actor::ALL.map(Act));
        ex.run(PackAll);
        if round % 2 == 1 {
            ex.run(Checkpoint);
        }
        ex.run(Cut);
        ex.reboot();
    }
    assert!(
        ex.homes(common::explorer::HOT) != [0; 3],
        "torture actually did work"
    );
}
