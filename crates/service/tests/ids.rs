//! The id contracts the service's store directory and the wire server's
//! read view rely on:
//!
//! 1. **Ascending ids** — ids are issued in sequence and never reused, so
//!    a snapshot's ids are strictly ascending after any mix of adds and
//!    removals, and every id resolves to its snapshot position.
//! 2. **Unknown ids** — an id that was never issued, one already removed,
//!    and `u64::MAX` are rejected as `UnknownClient` by reads and removals
//!    alike, and a rejected removal changes nothing.

use fedfl_core::bound::BoundParams;
use fedfl_service::{
    ClientId, ClientParams, Command, PricingService, Response, ServiceConfig, ServiceError,
    ServiceSnapshot,
};

fn config() -> ServiceConfig {
    ServiceConfig::new(BoundParams::new(4_000.0, 100.0, 1_000).unwrap(), 10.0)
}

fn client(k: usize) -> ClientParams {
    ClientParams::always_on(
        1.0 + k as f64,
        4.0 + (k % 7) as f64,
        30.0 + 10.0 * (k % 5) as f64,
        (k % 3) as f64,
        1.0,
    )
}

fn added(service: &mut PricingService, clients: Vec<ClientParams>) -> Vec<ClientId> {
    match service.execute(Command::AddClients(clients)).unwrap() {
        Response::Added(ids) => ids,
        other => panic!("{other:?}"),
    }
}

fn snapshot(service: &mut PricingService) -> ServiceSnapshot {
    match service.execute(Command::Snapshot).unwrap() {
        Response::Snapshot(snapshot) => snapshot,
        other => panic!("{other:?}"),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The snapshot's ids are strictly ascending and equal `expected`, and a
/// batched read of them returns each id's snapshot entry.
fn assert_ascending(service: &mut PricingService, expected: &[ClientId], after: &str) {
    let snapshot = snapshot(service);
    assert_eq!(snapshot.ids, expected, "ids after {after}");
    assert!(
        snapshot.ids.windows(2).all(|pair| pair[0] < pair[1]),
        "ids not strictly ascending after {after}: {:?}",
        snapshot.ids
    );
    let Response::Prices(quotes) = service
        .execute(Command::GetPrices(snapshot.ids.clone()))
        .unwrap()
    else {
        panic!("prices reply after {after}");
    };
    let quoted: Vec<ClientId> = quotes.iter().map(|q| q.id).collect();
    let prices: Vec<f64> = quotes.iter().map(|q| q.price).collect();
    assert_eq!(quoted, snapshot.ids);
    assert_eq!(
        bits(&prices),
        bits(&snapshot.prices),
        "prices after {after}"
    );
}

#[test]
fn ids_stay_strictly_ascending_through_removals_and_re_adds() {
    let mut service = PricingService::new(config()).unwrap();
    // Three route blocks' worth, so removals hit block edges and middles.
    let mut live = added(&mut service, (0..70).map(client).collect());
    let mut issued = live.clone();
    assert_ascending(&mut service, &live, "the first add");

    let first = live.remove(0);
    service.remove_clients(&[first]).unwrap();
    assert_ascending(&mut service, &live, "removing the first id");
    let last = live.pop().unwrap();
    service.remove_clients(&[last]).unwrap();
    assert_ascending(&mut service, &live, "removing the last id");
    let middle = live.remove(live.len() / 2);
    service.remove_clients(&[middle]).unwrap();
    assert_ascending(&mut service, &live, "removing a middle id");

    let fresh = added(&mut service, (70..75).map(client).collect());
    assert!(
        fresh.iter().all(|id| issued.iter().all(|old| id > old)),
        "re-added ids {fresh:?} must follow every id ever issued"
    );
    issued.extend(&fresh);
    live.extend(&fresh);
    assert_ascending(&mut service, &live, "re-adding");

    // First, last and middle in one batch, in descending order.
    let batch = vec![live[live.len() - 1], live[live.len() / 2], live[0]];
    live.retain(|id| !batch.contains(id));
    service.remove_clients(&batch).unwrap();
    assert_ascending(&mut service, &live, "a batched removal");

    let fresh = added(&mut service, (75..110).map(client).collect());
    assert!(fresh[0] > *issued.last().unwrap());
    live.extend(&fresh);
    assert_ascending(&mut service, &live, "re-adding a full block");
}

#[test]
fn unknown_ids_are_rejected_by_reads_and_removals_without_mutation() {
    let mut service = PricingService::new(config()).unwrap();
    let ids = added(&mut service, (0..40).map(client).collect());
    let removed = ids[5];
    service.remove_clients(&[removed]).unwrap();
    // The next id shares a route block with live ids; `u64::MAX` lies far
    // beyond every issued block.
    let never_issued = ClientId(ids.last().unwrap().0 + 1);
    let before = snapshot(&mut service);

    for bad in [never_issued, removed, ClientId(u64::MAX)] {
        for batch in [vec![bad], vec![ids[0], bad]] {
            assert_eq!(
                service.execute(Command::GetPrices(batch.clone())),
                Err(ServiceError::UnknownClient(bad)),
                "read of {batch:?}"
            );
            assert_eq!(
                service.execute(Command::RemoveClients(batch.clone())),
                Err(ServiceError::UnknownClient(bad)),
                "removal of {batch:?}"
            );
            assert!(!service.is_dirty(), "rejected removal dirtied the service");
            let after = snapshot(&mut service);
            assert_eq!(after.ids, before.ids, "rejected removal of {batch:?}");
            assert_eq!(bits(&after.prices), bits(&before.prices));
        }
    }
    // The service still serves and mutates normally.
    assert_eq!(
        service.execute(Command::RemoveClients(vec![ids[0]])),
        Ok(Response::Removed(1))
    );
    assert_eq!(snapshot(&mut service).ids.len(), ids.len() - 2);
}
