"""latentseal: latent-space image compression with chaotic shuffling and ECIES.

The package root is empty: import each name from its module, as in
`from latentseal import codec, pipeline`, so a process loads only what it runs."""
