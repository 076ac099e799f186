"""The bounded, read-only caches of the forward model (probe kets and
displaced parity operators)."""

# Each cache keeps this many most recently used entries.
CACHE_ENTRIES = 4


def read_only(arr):
    arr.flags.writeable = False
    return arr


def cached(cache, key, build):
    """cache[key], calling build() on a miss; evicts the least recently used."""
    if key in cache:
        cache[key] = value = cache.pop(key)
        return value
    value = cache[key] = build()
    if len(cache) > CACHE_ENTRIES:
        del cache[next(iter(cache))]
    return value
