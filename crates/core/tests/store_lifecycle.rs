//! Checkpoint-store lifecycle over repeated incremental fleet cycles.
//!
//! Each cycle stores a group's new baseline as a diff against the one it
//! displaces, resolved when it is stored, so committing the cycle
//! releases the displaced entry: the store holds exactly one entry per
//! group however many cycles run, and never leaks a page reference.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, FleetOptions, RewritePlan};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::{CkptId, ModuleRegistry};
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

const GROUPS: usize = 3;
const CYCLES: usize = 20;

/// Single-process Redis replicas sharing one kernel and one listener
/// backlog.
struct Fleet {
    kernel: Kernel,
    groups: Vec<Vec<Pid>>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_fleet(replicas: usize) -> Fleet {
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let groups = (0..replicas)
        .map(|_| {
            let pid = kernel.spawn(&spec).unwrap();
            kernel
                .run_until_event(EVENT_READY, 500_000_000)
                .expect("replica initializes");
            vec![pid]
        })
        .collect();
    Fleet {
        kernel,
        groups,
        exe: Arc::clone(&spec.exe),
        registry,
    }
}

/// One request into the shared backlog over a transient connection.
fn request(kernel: &mut Kernel, bytes: &[u8]) -> Vec<u8> {
    let conn = kernel.client_connect(redis::PORT).unwrap();
    let reply = kernel.client_request(conn, bytes, 10_000_000).unwrap();
    let _ = kernel.client_close(conn);
    reply
}

#[test]
fn repeated_fleet_cycles_keep_one_store_entry_per_group() {
    let Fleet {
        mut kernel,
        groups,
        exe,
        registry,
    } = boot_fleet(GROUPS);
    let mut dynacut = DynaCut::new(registry).with_incremental();
    let set = Feature::from_function("SET", &exe, "rd_cmd_set")
        .unwrap()
        .redirect_to_function(&exe, redis::ERROR_HANDLER)
        .unwrap();
    let mut newest: Vec<Option<CkptId>> = vec![None; GROUPS];

    for cycle in 0..CYCLES {
        // Traffic between cycles dirties heap and stack pages.
        for index in 0..4 {
            let reply = request(&mut kernel, format!("GET key{cycle}-{index}\n").as_bytes());
            assert!(!reply.is_empty(), "cycle {cycle}: fleet serves");
        }
        let plan = if cycle % 2 == 0 {
            RewritePlan::new().disable(set.clone())
        } else {
            RewritePlan::new().enable(set.clone())
        }
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
        let report = dynacut
            .customize_fleet(&mut kernel, &groups, &plan, &FleetOptions::default())
            .unwrap_or_else(|err| panic!("cycle {cycle} commits: {err}"));

        let store = dynacut.store();
        assert_eq!(store.len(), GROUPS, "cycle {cycle}: one entry per group");
        assert_eq!(
            store.logical_pages_bytes(),
            store.stored_pages_bytes(),
            "cycle {cycle}: no leaked page refs"
        );
        for (group, slot) in groups.iter().zip(&mut newest) {
            let id = report.procs[&group[0]]
                .checkpoint_id
                .expect("incremental cycles store a baseline");
            if let Some(displaced) = slot.replace(id) {
                assert!(
                    store.get(displaced).is_none(),
                    "cycle {cycle}: displaced {displaced} was released"
                );
            }
            store
                .materialize(id)
                .unwrap_or_else(|err| panic!("cycle {cycle}: {id} materializes: {err}"));
        }
    }
}
