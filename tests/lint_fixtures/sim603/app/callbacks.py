# Seeded bugs for SIM302's straight-line case (once the rule SIM603):
# the first callback captures ``target``, reassigned after the
# subscription point, so it sees the new value when the event fires.
# The second uses the default-binding idiom; the third, a nested def.


def schedule_bad(env):
    target = 10
    env.call_soon(lambda: print(target), 0)     # finding
    target = 20
    return target


def schedule_ok(env):
    target = 10
    env.call_soon(lambda t=target: print(t), 0)  # quiet: bound at def time
    target = 20
    return target


def subscribe_bad(event):
    total = 0

    def on_fire():
        print(total)

    event.add_callback(on_fire)                  # finding
    total = 1
    return total
