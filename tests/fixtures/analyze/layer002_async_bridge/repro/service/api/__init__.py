from repro.service.api.bridge import as_resolved, submit_batch_async
