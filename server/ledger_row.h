// The admission and wire-client ledgers as output rows, for the ledger
// failure reports of clic_serve and the serving benches.
#pragma once

#include "server/cache_server.h"
#include "server/net/wire_client.h"
#include "sweep/sweep.h"

namespace clic::server {

inline sweep::Row LedgerRow(const AdmissionStats& a) {
  sweep::Row row;
  row.Int("submitted_batches", a.submitted_batches)
      .Int("submitted_requests", a.submitted_requests)
      .Int("enqueued_batches", a.enqueued_batches)
      .Int("enqueued_requests", a.enqueued_requests)
      .Int("applied_batches", a.applied_batches)
      .Int("applied_requests", a.applied_requests)
      .Int("shed_batches", a.shed_batches)
      .Int("shed_requests", a.shed_requests)
      .Int("timed_out_batches", a.timed_out_batches)
      .Int("timed_out_requests", a.timed_out_requests)
      .Int("expired_batches", a.expired_batches)
      .Int("expired_requests", a.expired_requests)
      .Int("stopped_batches", a.stopped_batches)
      .Int("stopped_requests", a.stopped_requests);
  return row;
}

inline sweep::Row LedgerRow(const net::WireLoadResult& w) {
  sweep::Row row;
  row.Int("submitted_batches", w.submitted_batches)
      .Int("submitted_requests", w.submitted_requests)
      .Int("applied_batches", w.applied_batches)
      .Int("applied_requests", w.applied_requests)
      .Int("shed_batches", w.shed_batches)
      .Int("shed_requests", w.shed_requests)
      .Int("timed_out_batches", w.timed_out_batches)
      .Int("timed_out_requests", w.timed_out_requests)
      .Int("expired_batches", w.expired_batches)
      .Int("expired_requests", w.expired_requests)
      .Int("stopped_batches", w.stopped_batches)
      .Int("stopped_requests", w.stopped_requests)
      .Int("conn_lost_batches", w.conn_lost_batches)
      .Int("conn_lost_requests", w.conn_lost_requests);
  return row;
}

}  // namespace clic::server
